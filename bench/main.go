// Command bench is this repository's benchmark: four grid workloads
// over the code that exists, end-to-end metrics at reference speed, and
// a traced run that says where inside an op the time went. See
// README.md beside this file.
//
//	cd bench && go run . -workload short_jobs -seed 1
//	cd bench && go run . -workload short_jobs -seed 1 -trace 1
//	cd bench && go run . -selfcheck
//
// Everything runs in this one process over loopback TCP: no real link
// is crossed, and the only real disk work is the durable trust state's
// write-ahead log.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const defaultSeconds = 15

// runLimit is well above the 25-35 s a run takes and below the 180 s the
// driver allows.
const runLimit = 150 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
		seed         = flag.Int64("seed", 1, "workload seed: fixes op sequence, user order, payload bytes and subject draws")
		seconds      = flag.Int("seconds", defaultSeconds, "timed seconds, split over the repetitions (at least 5 each)")
		trace        = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and out/trace-<workload>.json")
		selfcheck    = flag.Bool("selfcheck", false, "run all workloads as two complete sets and compare them against the bounds")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(runSelfcheck(*seed, *seconds))
	}
	cfg := runConfig{
		workload: *workloadName,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace != 0,
		sc:       defaultScale,
		scratch:  filepath.Join("out", fmt.Sprintf("scratch-%d", os.Getpid())),
	}
	// No call the workloads make should block for long, but several take
	// no context; a run that has not finished in runLimit is given up
	// rather than left hanging.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: run did not finish within %v; giving up\n", runLimit)
		os.RemoveAll(cfg.scratch)
		os.Exit(2)
	})
	res, err := run(cfg)
	// The status calls go through net/http's shared transport; its idle
	// connections are the one thing this process would otherwise leave
	// open.
	http.DefaultClient.CloseIdleConnections()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.peakRSSMB = readPeakRSSMB()
	if cfg.trace {
		path := filepath.Join("out", "trace-"+cfg.workload+".json")
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to bench/%s (%d spans)\n", path, len(res.tr.spans))
	}
	res.print(os.Stdout)
}

// print writes the human-readable report and, as the last line, the
// machine-readable result.
func (r *result) print(out *os.File) {
	cfg := r.cfg
	fmt.Fprintf(out, "workload %s  seed %d  trace %v\n", cfg.workload, cfg.seed, cfg.trace)
	fmt.Fprintf(out, "environment: %s\n", r.env)
	fmt.Fprintf(out, "placement: client and server share this process; loopback TCP, no real link; real disk only for the WAL\n")
	fmt.Fprintf(out, "load: closed loop, clients %d, stripes %d; %d repetitions x (set-up, %v warm-up, %d slices of %v)\n",
		benchClients, benchStripes(), cfg.reps, defaultWarmup, cfg.slices, defaultSlice)
	minF, medF, low := r.factors()
	var refs []float64
	for _, st := range r.slices {
		refs = append(refs, st.refMS)
	}
	fmt.Fprintf(out, "speed reference: nominal %.3f ms, measured median %.3f ms; slice factor min %.3f median %.3f\n",
		refNominalMS, percentile(refs, 0.5), minF, medF)
	stealShare := r.stealMS / 1e3 / r.wallS
	fmt.Fprintf(out, "steal: %.0f ms over %.1f s wall (%.2f%%)\n", r.stealMS, r.wallS, 100*stealShare)
	if stealShare > disturbedSteal || len(low) > 0 {
		fmt.Fprintf(out, "DISTURBED: steal %.2f%% of wall; slow slices: %s\n", 100*stealShare, strings.Join(low, ", "))
	} else {
		fmt.Fprintln(out, "undisturbed: steal within 2% of wall, every slice factor at least 0.75")
	}
	fmt.Fprintf(out, "ops: attempted %d, failed %d, fail-open %d; op-sequence digest %016x\n",
		r.attempted, r.failed, r.failOpens, r.digest)
	if n := r.counters["gridftp.leg_retries"]; n > 0 {
		fmt.Fprintf(out, "transfer legs that failed in transport and were retried once: %.0f\n", n)
	}

	fmt.Fprintln(out, "slices (rep.slice: ops, ops/s as read, CPU us/op as read, reference ms, speed factor):")
	for _, st := range r.slices {
		mark := ""
		if st.traced {
			mark = " traced"
		}
		fmt.Fprintf(out, "  %d.%d: %7d ops %12.2f /s %10.2f us %7.3f ms  x%.3f%s\n", st.rep, st.idx, st.ops,
			float64(st.ops)/(float64(st.wallNS)/1e9), float64(st.cpuNS)/1e3/float64(st.ops), st.refMS, st.factor, mark)
	}
	for i, s := range r.setups {
		fmt.Fprintf(out, "  set-up %d: %.4f s as read, reference %.3f ms  x%.3f\n", i, s.rawS, s.refMS, s.factor)
	}

	var defs []metricDef
	var values map[string]float64
	if cfg.trace {
		defs, values = perLayerDefs, r.perLayer()
	} else {
		defs, values = endToEndDefs, r.endToEnd()
		raw := r.timing(false, false)
		fmt.Fprintf(out, "as the clock read them, before division by the speed factor (%d op latencies):\n", raw.samples)
		rawLine, _ := json.Marshal(map[string]float64{
			"setup_s": raw.setupS, "ops_per_s": raw.opsPerS, "op_p50_us": raw.p50us, "op_p90_us": raw.p90us, "cpu_us_per_op": raw.cpuUS,
		})
		fmt.Fprintf(out, "%s%s\n", rawLinePrefix, rawLine)
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %16.4f %s\n", d.name, values[d.name], d.unit)
		metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.failOpens == 0, r.attempted, r.failed, metrics})
	if err != nil {
		panic(err) // a map of floats always marshals
	}
	fmt.Fprintln(out, string(line))
}
