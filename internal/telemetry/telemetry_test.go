package telemetry

import (
	"strings"
	"testing"
	"time"
)

// counter is a counter that reads v at every scrape.
func counter(name, help string, v uint64) *CounterFunc {
	return NewCounterFunc(name, help, func() uint64 { return v })
}

// TestExpositionGolden pins the exact exposition output: family
// grouping, HELP/TYPE headers, sorted series, histogram buckets with
// cumulative counts and merged labels.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	c := counter("gsi_test_ops_total", "Operations performed.", 42)
	g := NewGaugeFunc(`gsi_test_idle{id="a"}`, "Idle things.", func() float64 { return 6 })
	g2 := NewGaugeFunc(`gsi_test_idle{id="b"}`, "Idle things.", func() float64 { return 3 })

	h := NewHistogram(`gsi_test_seconds{kind="x"}`, "Latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	f := NewGaugeFunc("gsi_test_ratio", "A sampled ratio.", func() float64 { return 0.5 })
	cf := NewCounterFunc("gsi_test_sampled_total", "A sampled counter.", func() uint64 { return 9 })

	if err := r.Register(c, g, g2, h, f, cf); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gsi_test_idle Idle things.
# TYPE gsi_test_idle gauge
gsi_test_idle{id="a"} 6
gsi_test_idle{id="b"} 3
# HELP gsi_test_ops_total Operations performed.
# TYPE gsi_test_ops_total counter
gsi_test_ops_total 42
# HELP gsi_test_ratio A sampled ratio.
# TYPE gsi_test_ratio gauge
gsi_test_ratio 0.5
# HELP gsi_test_sampled_total A sampled counter.
# TYPE gsi_test_sampled_total counter
gsi_test_sampled_total 9
# HELP gsi_test_seconds Latency.
# TYPE gsi_test_seconds histogram
gsi_test_seconds_bucket{kind="x",le="0.01"} 2
gsi_test_seconds_bucket{kind="x",le="0.1"} 3
gsi_test_seconds_bucket{kind="x",le="+Inf"} 4
gsi_test_seconds_sum{kind="x"} 5.06
gsi_test_seconds_count{kind="x"} 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricsZeroAlloc gates the hot-path instruments at zero
// allocations per operation — the invariant that lets the record layer
// and exchange path carry them without moving the 2-allocs/op gate.
func TestMetricsZeroAlloc(t *testing.T) {
	h := NewHistogram("gsi_test_zero_seconds", "", nil)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveDuration(3 * time.Millisecond) }); n != 0 {
		t.Errorf("Histogram.ObserveDuration allocates %v/op, want 0", n)
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := NewHistogram("gsi_test_hist_seconds", "", nil)
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count = %d, want 100", got)
	}
	if got := h.Sum(); got < 0.099 || got > 0.101 {
		t.Errorf("Sum = %v, want ~0.1", got)
	}
}

func TestRegisterConflicts(t *testing.T) {
	r := NewRegistry()
	c := counter("gsi_test_dup_total", "", 0)
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	// Same object again: idempotent.
	if err := r.Register(c); err != nil {
		t.Errorf("re-registering the same object: %v", err)
	}
	// Different object, same series: conflict.
	if err := r.Register(counter("gsi_test_dup_total", "", 0)); err == nil {
		t.Error("registering a second metric under one series name should fail")
	}
	// The same object may live in several registries (shared process-wide
	// internals).
	r2 := NewRegistry()
	if err := r2.Register(c); err != nil {
		t.Errorf("registering in a second registry: %v", err)
	}
}

func TestNameValidation(t *testing.T) {
	for _, bad := range []string{
		"", "9leading", "has space", "bad-dash",
		`x{}`, `x{k}`, `x{k=v}`, `x{k="v`, `x{k="a"b"}`,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: expected panic", bad)
				}
			}()
			counter(bad, "", 0)
		}()
	}
	for _, good := range []string{
		"x", "x_total", "ns:sub_total", `x{k="v"}`, `x{a="1",b="two words"}`,
	} {
		counter(good, "", 0) // must not panic
	}
}

func TestEscapeLabelValue(t *testing.T) {
	got := EscapeLabelValue("a\\b\"c\nd")
	want := `a\\b\"c\nd`
	if got != want {
		t.Errorf("EscapeLabelValue = %q, want %q", got, want)
	}
}

// TestHostileDNLabels pins the escape-aware label grammar on
// DN-derived values: commas are ordinary characters inside a quoted
// value (every DN has them), and escaped backslashes, quotes, and
// newlines from EscapeLabelValue must be accepted — while their raw
// forms stay refused. The PR 4 gridmap work can surface all three.
func TestHostileDNLabels(t *testing.T) {
	hostile := []string{
		`/O=Grid,/OU=a"b,/CN=quote`,     // raw quote in the DN
		`/O=Grid,/OU=back\slash,/CN=bs`, // raw backslash
		"/O=Grid,/CN=new\nline",         // raw newline
		`/O=Grid,/CN=plain comma DN`,    // commas only
	}
	for _, dn := range hostile {
		name := `gsi_test_dn_total{id="` + EscapeLabelValue(dn) + `"}`
		r := NewRegistry()
		if err := r.Register(counter(name, "Per-identity ops.", 1)); err != nil { // must not panic
			t.Fatal(err)
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatalf("DN %q: %v", dn, err)
		}
		got := b.String()
		wantSeries := name + " 1\n"
		if !strings.Contains(got, wantSeries) {
			t.Errorf("DN %q: exposition missing %q:\n%s", dn, wantSeries, got)
		}
		// One sample line per series: the raw newline must have been
		// escaped away, not split the line.
		if lines := strings.Count(got, "\n"); lines != 3 {
			t.Errorf("DN %q: exposition has %d lines, want 3 (HELP, TYPE, sample):\n%s", dn, lines, got)
		}
	}
	// Raw (unescaped) hostile bytes in the label block stay refused.
	for _, bad := range []string{
		`x{id="raw"quote"}`,
		"x{id=\"raw\nnewline\"}",
		`x{id="trailing\"}`,
		`x{id="bad\escape"}`,
		`x{id="v",}`,
		`x{id="v"extra}`,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label block %q: expected panic", bad)
				}
			}()
			counter(bad, "", 0)
		}()
	}
	// A full DN from the gridmap path renders as one parseable series
	// even when several identities share the family.
	a := counter(`gsi_peer_ops_total{id="`+EscapeLabelValue(`/O=Grid/CN=A\lice "The" 1st`)+`"}`, "h", 0)
	b2 := counter(`gsi_peer_ops_total{id="`+EscapeLabelValue("/O=Grid/CN=Bob,OU=x")+`"}`, "h", 0)
	r := NewRegistry()
	if err := r.Register(a, b2); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(sb.String(), "gsi_peer_ops_total{"); c != 2 {
		t.Fatalf("want 2 series under the family, got %d:\n%s", c, sb.String())
	}
}
