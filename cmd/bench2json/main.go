// Command bench2json converts `go test -bench` output on stdin into a
// JSON series on stdout, so benchmark runs can be recorded as
// BENCH_*.json trajectory points (see the Makefile's bench-authz
// target).
//
// Usage:
//
//	go test -bench 'Authorize' -benchmem . | bench2json > BENCH_authz.json
//
// With -gate-allocs, bench2json doubles as the CI allocation
// regression gate: it still emits the JSON, but exits nonzero when a
// named benchmark's allocs/op exceeds its bound (or is missing from
// the input entirely, so a renamed benchmark cannot silently disable
// its gate):
//
//	... | bench2json -gate-allocs 'ExchangeSteadyState=2,PoolProbe=0' > BENCH_record.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Result is one recorded benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Series is the file layout: environment header plus results.
type Series struct {
	RecordedAt string   `json:"recorded_at"`
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	gateSpec := flag.String("gate-allocs", "", "comma-separated Name=maxAllocsPerOp bounds enforced on the parsed results")
	flag.Parse()
	gates, err := parseGates(*gateSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(2)
	}
	series := Series{RecordedAt: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			series.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			series.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			series.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		r, ok := parseBenchLine(line)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench2json: skipping unparseable line: %s\n", line)
			continue
		}
		series.Results = append(series.Results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(series); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if failures := checkGates(gates, series.Results); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "bench2json: gate failed:", f)
		}
		os.Exit(3)
	}
}

// parseGates parses "Name=max,Name=max" into bounds.
func parseGates(spec string) (map[string]float64, error) {
	gates := make(map[string]float64)
	if spec == "" {
		return gates, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, bound, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed -gate-allocs entry %q (want Name=max)", part)
		}
		v, err := strconv.ParseFloat(bound, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("malformed -gate-allocs bound in %q", part)
		}
		gates[name] = v
	}
	return gates, nil
}

// checkGates compares each gated benchmark's allocs/op metric against
// its bound. A gated benchmark absent from the results (or lacking
// -benchmem output) is itself a failure.
func checkGates(gates map[string]float64, results []Result) []string {
	var failures []string
	for name, bound := range gates {
		found := false
		for _, r := range results {
			if r.Name != name {
				continue
			}
			found = true
			allocs, ok := r.Metrics["allocs/op"]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: no allocs/op metric (run with -benchmem)", name))
				break
			}
			if allocs > bound {
				failures = append(failures, fmt.Sprintf("%s: %.1f allocs/op exceeds the gate of %.1f", name, allocs, bound))
			}
			break
		}
		if !found {
			failures = append(failures, fmt.Sprintf("%s: benchmark missing from input", name))
		}
	}
	return failures
}

// parseBenchLine parses "BenchmarkName-8  123  456 ns/op  7 B/op ..."
// into a Result; metric pairs after the iteration count are (value,
// unit).
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	metrics := make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return Result{}, false
	}
	return Result{Name: name, Iterations: iters, Metrics: metrics}, true
}
