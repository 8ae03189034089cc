// Package telemetry is the repo's dependency-free metrics layer:
// counters and gauges sampled at scrape time from the counters each
// subsystem already keeps, and fixed-bucket histograms whose Observe
// allocates nothing, collected by a Registry that renders the Prometheus
// text exposition format. The security plane's counters (pool occupancy,
// decision-cache hits, handshake latency, record-pool pressure) hang off
// it so a long-running container is observable without restarting — the
// operational story the paper's deployment section assumes.
//
// Metrics are standalone objects; a Registry only enumerates them for
// exposition. One metric may be registered in several registries (the
// process-wide internals are shared by every facade registry), and
// instruments stay live whether or not anything scrapes them.
//
// Series naming follows the exposition format directly: a metric's name
// may carry a literal label block, e.g.
//
//	telemetry.NewCounterFunc(`gsi_pool_hits_total{id="ab12cd34"}`, "...", pool.hits)
//
// and metrics sharing the family (the part before '{') share one
// HELP/TYPE header in the scrape output.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric is anything a Registry can expose: CounterFunc, GaugeFunc and
// Histogram implement it.
type Metric interface {
	// Name returns the full series name, label block included.
	Name() string
	// help and typ describe the family; write renders the series.
	help() string
	typ() string
	write(b *strings.Builder)
}

// --- instruments ---------------------------------------------------------

// CounterFunc samples a uint64 at scrape time — the bridge for
// subsystems that already keep their own atomic counters (pool stats,
// decision-cache stats): the hot path stays theirs, exposition costs one
// closure call per scrape.
type CounterFunc struct {
	desc
	fn func() uint64
}

// NewCounterFunc creates a scrape-time-sampled counter.
func NewCounterFunc(name, help string, fn func() uint64) *CounterFunc {
	if fn == nil {
		panic("telemetry: nil CounterFunc sampler")
	}
	return &CounterFunc{desc: mustDesc(name, help), fn: fn}
}

func (c *CounterFunc) typ() string { return "counter" }

func (c *CounterFunc) write(b *strings.Builder) {
	writeSample(b, c.name, "", formatUint(c.fn()))
}

// GaugeFunc samples a float64 at scrape time.
type GaugeFunc struct {
	desc
	fn func() float64
}

// NewGaugeFunc creates a scrape-time-sampled gauge.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	if fn == nil {
		panic("telemetry: nil GaugeFunc sampler")
	}
	return &GaugeFunc{desc: mustDesc(name, help), fn: fn}
}

func (g *GaugeFunc) typ() string { return "gauge" }

func (g *GaugeFunc) write(b *strings.Builder) {
	writeSample(b, g.name, "", formatFloat(g.fn()))
}

// --- histogram -----------------------------------------------------------

// LatencyBuckets are the fixed upper bounds (seconds) the security
// plane's latency histograms use: 100µs at the bottom (a cached resume
// on loopback) through 2.5s (a cold public-key handshake over a slow
// WAN link).
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free and allocation-free: one atomic add on the bucket, one CAS
// loop on the float-bits sum.
type Histogram struct {
	desc
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits of the running sum
}

// NewHistogram creates a histogram over the given bucket upper bounds,
// which must be sorted ascending. Nil buckets select LatencyBuckets.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	if len(buckets) == 0 {
		panic("telemetry: histogram needs at least one bucket")
	}
	bounds := append([]float64(nil), buckets...)
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram buckets not sorted")
	}
	return &Histogram{
		desc:   mustDesc(name, help),
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. The bucket scan is linear: the fixed
// bucket sets here are small (≤16) and a branchy binary search saves
// nothing at that size.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) typ() string { return "histogram" }

func (h *Histogram) write(b *strings.Builder) {
	family, labels := splitName(h.name)
	bucketName := family + "_bucket" + labels
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(b, bucketName, `le="`+formatFloat(bound)+`"`, formatUint(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(b, bucketName, `le="+Inf"`, formatUint(cum))
	writeSample(b, family+"_sum"+labels, "", formatFloat(h.Sum()))
	writeSample(b, family+"_count"+labels, "", formatUint(cum))
}

// --- series descriptors --------------------------------------------------

// desc is the shared name/help pair embedded by every instrument.
type desc struct {
	name     string
	helpText string
}

func (d desc) Name() string { return d.name }
func (d desc) help() string { return d.helpText }

// mustDesc validates a series name: family part matching the exposition
// grammar, optionally followed by a literal {label="value",...} block.
func mustDesc(name, help string) desc {
	family, labels := splitName(name)
	if !validFamily(family) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if labels != "" && !validLabels(labels) {
		panic(fmt.Sprintf("telemetry: invalid label block in %q", name))
	}
	return desc{name: name, helpText: help}
}

// splitName separates "family{labels}" into family and the literal
// "{labels}" remainder ("" when unlabeled).
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

func validFamily(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabels accepts a literal {key="value",...} block. Values follow
// the exposition escaping rules — \\, \", and \n are the only escapes,
// raw quotes and newlines are refused — and a DN value may legitimately
// contain commas, so pairs cannot be split on raw commas: this is a
// quote-aware scan, not a strings.Split.
func validLabels(s string) bool {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return false
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return false
	}
	i := 0
	for {
		// Key up to '='.
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 || !validFamily(body[i:i+eq]) {
			return false
		}
		i += eq + 1
		// Quoted value with escape-aware traversal.
		if i >= len(body) || body[i] != '"' {
			return false
		}
		i++
		closed := false
		for i < len(body) {
			switch body[i] {
			case '\\':
				if i+1 >= len(body) {
					return false
				}
				switch body[i+1] {
				case '\\', '"', 'n':
					i += 2
				default:
					return false
				}
			case '"':
				closed = true
				i++
			case '\n':
				return false
			default:
				i++
			}
			if closed {
				break
			}
		}
		if !closed {
			return false
		}
		if i == len(body) {
			return true
		}
		if body[i] != ',' {
			return false
		}
		i++
		if i == len(body) {
			return false // trailing comma
		}
	}
}

// EscapeLabelValue escapes a string for use inside a label value
// (backslash, double quote, newline — the exposition-format rules).
func EscapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// --- registry ------------------------------------------------------------

// Registry is a set of metrics rendered together. Registration is
// explicit; scraping never mutates instruments.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]Metric // by full series name
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]Metric)}
}

// Register adds metrics to the registry. Re-registering the same object
// is a no-op (wiring code may run per-endpoint); a different metric
// under an existing series name is an error — two writers under one
// name would render an unparseable scrape.
func (r *Registry) Register(ms ...Metric) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		if m == nil {
			return fmt.Errorf("telemetry: nil metric")
		}
		if prev, ok := r.metrics[m.Name()]; ok {
			if prev == m {
				continue
			}
			return fmt.Errorf("telemetry: series %q already registered", m.Name())
		}
		r.metrics[m.Name()] = m
	}
	return nil
}

// Get returns the metric registered under the full series name, if any.
func (r *Registry) Get(name string) (Metric, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	return m, ok
}

// snapshot returns the registered metrics grouped into families sorted
// by name, series sorted within each family.
func (r *Registry) snapshot() []familySnapshot {
	r.mu.Lock()
	byFamily := make(map[string][]Metric)
	for _, m := range r.metrics {
		f, _ := splitName(m.Name())
		byFamily[f] = append(byFamily[f], m)
	}
	r.mu.Unlock()
	out := make([]familySnapshot, 0, len(byFamily))
	for f, ms := range byFamily {
		sort.Slice(ms, func(i, j int) bool { return ms[i].Name() < ms[j].Name() })
		out = append(out, familySnapshot{name: f, metrics: ms})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type familySnapshot struct {
	name    string
	metrics []Metric
}
