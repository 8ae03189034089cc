package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/telemetry"
	"repro/pkg/gsi"
)

// The run shape, the same for every workload: world generation
// (untimed), then reps repetitions of fresh set-up (timed) -> warm-up
// -> a timed phase cut into slices, each slice bracketed by the speed
// reference. One driver goroutine issues the ops in a closed loop: the
// next op starts when the previous one has completed and been checked.

const (
	defaultReps     = 3
	defaultSlice    = time.Second
	defaultWarmup   = time.Second
	minTimedPerRep  = 5 // seconds; below this the slice medians stop repeating
	setupsPerRep    = 3
	refEvery        = 100 * time.Millisecond
	disturbedFactor = 0.75
	disturbedSteal  = 0.02
)

// workload is one of the four traffic shapes.
type workload interface {
	// prepare mints the workload's credentials and inputs from the seed,
	// before any timing.
	prepare(w *world, rng *rand.Rand) error
	// open binds the workload's clients to a freshly started data
	// server. The runner then calls step(0): set-up ends with the first
	// successful op.
	open(w *world, ds *dataServer, tr *tracer) (instance, error)
	// finish releases what prepare started.
	finish()
}

// instance is a workload bound to one repetition's server.
type instance interface {
	// step runs op i of the seeded schedule and checks its output; a
	// non-nil error is a failed op.
	step(i int) error
	// betweenSlices is untimed housekeeping at a slice boundary.
	betweenSlices() error
	// counters adds what the program's own statistics recorded.
	counters(c map[string]float64)
	// digest summarises the op sequence issued so far.
	digest() uint64
	close()
}

// failOpen marks a failed op that was a permit the oracle forbids; one
// of them fails the whole run.
type failOpen struct{ msg string }

func (e *failOpen) Error() string { return "FAIL-OPEN: " + e.msg }

type runConfig struct {
	workload string
	seed     int64
	seconds  int // timed seconds over all repetitions
	trace    bool
	sc       scale

	// Fixed-count mode for the determinism test: every slice runs exactly
	// sliceOps ops and warm-up warmupOps, whatever the clock says.
	reps      int
	slices    int
	sliceOps  int
	warmupOps int
	scratch   string
	quiet     bool
	// tamper, when set by the determinism test, gets every instance
	// before its first op.
	tamper func(instance)
}

type setupStat struct {
	rawS   float64
	refMS  float64
	factor float64
}

type sliceStat struct {
	rep, idx int
	traced   bool
	ops      int
	wallNS   int64
	cpuNS    int64
	refMS    float64
	factor   float64
	mallocs  uint64
	bytes    uint64
	lat      []uint32 // raw op latencies, nanoseconds
}

type result struct {
	cfg       runConfig
	env       environment
	attempted int
	failed    int
	failOpens int
	errs      []string

	setups []setupStat
	slices []sliceStat

	counters map[string]float64
	digest   uint64

	worldgenS     float64
	wallS         float64
	liveHeapMB    float64
	peakRSSMB     float64
	gcCycles      uint32
	gcPauseMS     float64
	goroutines    int
	stealMS       float64
	volSwitches   int64
	involSwitches int64
	lo            loCounters
	timedOps      int

	tr       *tracer
	probes   map[string]float64
	registry *gsi.MetricsRegistry // the last repetition's, traced runs only
}

func (r *result) fail(err error) {
	r.failed++
	var fo *failOpen
	if errors.As(err, &fo) {
		r.failOpens++
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
		if !r.cfg.quiet {
			fmt.Fprintln(os.Stderr, "failed op:", err)
		}
	}
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "short_jobs":
		return &shortJobs{}, nil
	case "pooled_rpc":
		return &pooledRPC{}, nil
	case "bulk_transfer":
		return &bulkTransfer{}, nil
	case "authz_churn":
		return &authzChurn{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"short_jobs", "pooled_rpc", "bulk_transfer", "authz_churn"}

// benchClients is the closed loop's width: one driver goroutine. It and
// the in-process server already occupy the two cores the benchmark was
// defined on, where a second client made op_p50 swing 20%.
const benchClients = 1

// benchStripes follows the box: one stripe per core, at least two (or
// nothing is striped) and at most four.
func benchStripes() int { return min(max(runtime.NumCPU(), 2), 4) }

func run(cfg runConfig) (*result, error) {
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.reps == 0 {
		cfg.reps = defaultReps
	}
	if cfg.slices == 0 {
		cfg.slices = max(cfg.seconds/cfg.reps, minTimedPerRep)
	}
	res := &result{cfg: cfg, env: readEnvironment(), counters: make(map[string]float64), probes: make(map[string]float64)}
	if cfg.trace {
		res.tr = newTracer()
	}
	ref := newRefKernel()
	ref.measure() // page in the kernel's buffers before it is used as a yardstick

	runStart := time.Now()
	steal0 := readStealMS()
	w, err := newWorld(cfg.sc, cfg.scratch, cfg.trace)
	if err != nil {
		return nil, fmt.Errorf("world generation: %w", err)
	}
	defer w.close()
	if err := wl.prepare(w, rand.New(rand.NewSource(cfg.seed))); err != nil {
		return nil, fmt.Errorf("world generation: %w", err)
	}
	defer wl.finish()
	res.worldgenS = time.Since(runStart).Seconds()

	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	ru0 := readRusage()

	for rep := 0; rep < cfg.reps; rep++ {
		if err := runRep(res, w, wl, ref, rep); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
	}

	if res.registry != nil {
		// Process-wide histograms the registry switches on: every full
		// handshake and every resumption since the first traced set-up.
		res.counters["gss.full_handshakes"] = histogramCount(res.registry, "gsi_handshake_seconds")
		res.counters["gss.resumed"] = histogramCount(res.registry, "gsi_resume_seconds")
	}
	if cfg.trace {
		if err := runProbes(res, w); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	ru1 := readRusage()
	res.gcCycles = gc1.NumGC - gc0.NumGC
	res.gcPauseMS = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	res.volSwitches = ru1.volSwitches - ru0.volSwitches
	res.involSwitches = ru1.involSwitches - ru0.involSwitches
	res.stealMS = readStealMS() - steal0
	res.wallS = time.Since(runStart).Seconds()
	return res, nil
}

// setUp times one restart: fresh environment, durable state replayed,
// server serving, replica holding its first full bundle, client built,
// first op done and checked.
func setUp(res *result, w *world, wl workload, ref *refKernel, dir string) (*dataServer, instance, error) {
	tr := res.tr
	// Every set-up starts from a collected heap, as a restarted process
	// would, not from whatever ran before it.
	runtime.GC()
	if tr != nil {
		tr.on = true
		defer func() { tr.on = false }()
	}
	refBefore := ref.measure()
	t0 := time.Now()
	ds, err := w.startDataServer(dir, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	inst, err := wl.open(w, ds, tr)
	if err != nil {
		ds.close()
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	if res.cfg.tamper != nil {
		res.cfg.tamper(inst)
	}
	sp := tr.begin("setup.first_op")
	err = inst.step(0)
	tr.end(sp)
	if err != nil {
		inst.close()
		ds.close()
		return nil, nil, fmt.Errorf("set-up: first op: %w", err)
	}
	rawS := time.Since(t0).Seconds()
	refMS := (refBefore + ref.measure()) / 2
	res.setups = append(res.setups, setupStat{rawS: rawS, refMS: refMS, factor: refNominalMS / refMS})
	res.attempted++
	return ds, inst, nil
}

func runRep(res *result, w *world, wl workload, ref *refKernel, rep int) error {
	cfg := res.cfg
	tr := res.tr
	dir, err := w.freshDurableDir()
	if err != nil {
		return err
	}
	// Set-up is timed several times per repetition: a number that takes
	// half a second and depends on goroutine scheduling and collector
	// timing needs more than three samples a run to repeat. Only the last
	// server of a repetition goes on to carry load.
	for k := 1; k < setupsPerRep; k++ {
		ds, inst, err := setUp(res, w, wl, ref, dir)
		if err != nil {
			return err
		}
		inst.counters(res.counters)
		inst.close()
		ds.close()
		if dir, err = w.freshDurableDir(); err != nil {
			return err
		}
	}
	ds, inst, err := setUp(res, w, wl, ref, dir)
	if err != nil {
		return err
	}
	defer ds.close()
	defer inst.close()
	res.registry = ds.registry

	res.attempted++
	if err := w.refusesOutsider(ds); err != nil {
		res.fail(err)
	}

	// Warm-up: caches fill and lazy set-up finishes before timing.
	i := 1
	for t := time.Now(); ; {
		if cfg.sliceOps > 0 {
			if i > cfg.warmupOps {
				break
			}
		} else if time.Since(t) >= defaultWarmup {
			break
		}
		res.attempted++
		if err := inst.step(i); err != nil {
			res.fail(err)
		}
		i++
	}
	opsGuess := int(float64(i) * defaultSlice.Seconds() / defaultWarmup.Seconds() * 1.5)
	if cfg.sliceOps > 0 {
		opsGuess = cfg.sliceOps
	}

	lo0 := readLoopback()
	var ms0, ms1 runtime.MemStats
	for s := 0; s < cfg.slices; s++ {
		if err := inst.betweenSlices(); err != nil {
			return err
		}
		st := sliceStat{rep: rep, idx: s, traced: tr != nil && s%2 == 1, lat: make([]uint32, 0, opsGuess)}
		if tr != nil {
			tr.on = st.traced
		}
		runtime.ReadMemStats(&ms0)
		ru0 := readRusage()
		start := time.Now()
		// The reference runs inside the slice: one unit at its start, one
		// every refEvery, one at its end, each taken out of the slice's wall
		// and CPU time. Samples spread through the second say how fast the
		// box was during it; two samples at its ends did not (on ten runs
		// the spread of authz_churn's ops_per_s was 6.9% with end samples
		// and 2.2% with these).
		var refWall, refCPU time.Duration
		refUnits := 0
		sample := func() time.Time {
			c0, t0 := readRusage().cpu, time.Now()
			ref.unit()
			t1 := time.Now()
			refCPU += readRusage().cpu - c0
			refWall += t1.Sub(t0)
			refUnits++
			return t1
		}
		lastRef := sample()
		for opStart := lastRef; ; {
			res.attempted++
			if err := inst.step(i); err != nil {
				res.fail(err)
			}
			i++
			now := time.Now()
			st.lat = append(st.lat, uint32(min(now.Sub(opStart).Nanoseconds(), math.MaxUint32)))
			if cfg.sliceOps > 0 {
				if len(st.lat) >= cfg.sliceOps {
					break
				}
			} else if now.Sub(start)-refWall >= defaultSlice {
				break
			}
			if now.Sub(lastRef) >= refEvery {
				now = sample()
				lastRef = now
			}
			opStart = now
		}
		end := sample()
		st.wallNS = (end.Sub(start) - refWall).Nanoseconds()
		st.cpuNS = (readRusage().cpu - ru0.cpu - refCPU).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if tr != nil {
			tr.on = false
		}
		st.refMS = float64(refWall.Nanoseconds()) / 1e6 / float64(refUnits)
		st.factor = refNominalMS / st.refMS
		st.ops = len(st.lat)
		st.mallocs = ms1.Mallocs - ms0.Mallocs
		st.bytes = ms1.TotalAlloc - ms0.TotalAlloc
		res.slices = append(res.slices, st)
		res.timedOps += st.ops
	}
	lo1 := readLoopback()
	res.lo.bytes += lo1.bytes - lo0.bytes
	res.lo.packets += lo1.packets - lo0.packets

	if rep == cfg.reps-1 {
		// What the server and its clients retain after the load: caches,
		// pools, sessions that were never released. The harness's own
		// latency samples are taken off.
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		harness := 0
		for _, st := range res.slices {
			harness += cap(st.lat) * 4
		}
		res.liveHeapMB = float64(int(ms1.HeapAlloc)-harness) / (1 << 20)
		res.goroutines = runtime.NumGoroutine()
	}
	res.attempted++
	if err := w.refusesOutsider(ds); err != nil {
		res.fail(err)
	}
	inst.counters(res.counters)
	res.digest = res.digest*1099511628211 ^ inst.digest()
	return nil
}

func histogramCount(reg *gsi.MetricsRegistry, name string) float64 {
	m, ok := reg.Get(name)
	if !ok {
		return 0
	}
	h, ok := m.(*telemetry.Histogram)
	if !ok {
		return 0
	}
	return float64(h.Count())
}

// --- statistics -----------------------------------------------------------

// percentile returns the p-quantile of v (0 for no samples).
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sortedAt(s, p)
}

func sortedAt(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(p*float64(len(sorted))), len(sorted)-1)]
}

// timing folds the slices into the time-based numbers, either at
// reference speed (corrected) or as the clock read them (raw). Traced
// slices are left out of everything but the overhead ratio.
type timing struct {
	opsPerS, p50us, p90us, p99us, maxus, cpuUS, setupS float64
	samples                                            int
}

func (r *result) timing(corrected bool, traced bool) timing {
	var rates, lat []float64
	var cpu float64
	ops := 0
	for _, st := range r.slices {
		if st.traced != traced {
			continue
		}
		f := 1.0
		if corrected {
			f = st.factor
		}
		rates = append(rates, float64(st.ops)/(float64(st.wallNS)/1e9)/f)
		cpu += float64(st.cpuNS) / 1e3 * f
		ops += st.ops
		for _, ns := range st.lat {
			lat = append(lat, float64(ns)/1e3*f)
		}
	}
	var setups []float64
	for _, s := range r.setups {
		f := 1.0
		if corrected {
			f = s.factor
		}
		setups = append(setups, s.rawS*f)
	}
	sort.Float64s(lat)
	t := timing{
		opsPerS: percentile(rates, 0.5), setupS: percentile(setups, 0.5),
		p50us: sortedAt(lat, 0.5), p90us: sortedAt(lat, 0.9), p99us: sortedAt(lat, 0.99), maxus: sortedAt(lat, 1),
		samples: len(lat),
	}
	if ops > 0 {
		t.cpuUS = cpu / float64(ops)
	}
	return t
}

// untracedTotals sums the allocation counts of the slices that feed the
// end-to-end metrics.
func (r *result) untracedTotals() (ops int, mallocs, bytes uint64) {
	for _, st := range r.slices {
		if !st.traced {
			ops += st.ops
			mallocs += st.mallocs
			bytes += st.bytes
		}
	}
	return
}

func (r *result) factors() (minF, medF float64, low []string) {
	var fs []float64
	minF = math.Inf(1)
	for _, st := range r.slices {
		fs = append(fs, st.factor)
		minF = min(minF, st.factor)
		if st.factor < disturbedFactor {
			low = append(low, fmt.Sprintf("rep %d slice %d (factor %.2f)", st.rep, st.idx, st.factor))
		}
	}
	return minF, percentile(fs, 0.5), low
}
