package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The self-check answers the one question a benchmark must answer about
// itself before anyone trusts a difference it reports: do two complete
// sets of runs of the same code agree within its own bounds?

// benchmarkFile is the contract file at the root of the repository; the
// bounds live there and nowhere else.
const benchmarkFile = "../BENCHMARK.json"

type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	RunSeconds int `json:"run_seconds"`
}

func readBenchmarkSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	return &spec, nil
}

// rawLinePrefix marks the report line that carries the uncorrected
// time-based metrics in machine-readable form.
const rawLinePrefix = "raw-json: "

type childResult struct {
	Correct bool                   `json:"correct"`
	Failed  int                    `json:"failed"`
	Metrics map[string]metricValue `json:"metrics"`
	raw     map[string]float64
}

// runChild runs one workload in a process of its own, so the sets
// compare what the driver compares.
func runChild(workload string, seed int64, seconds int) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := &childResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, rawLinePrefix); ok {
			if err := json.Unmarshal([]byte(rest), &res.raw); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func runSelfcheck(seed int64, seconds int) int {
	spec, err := readBenchmarkSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		return 1
	}
	var sets [2]map[string]*childResult
	for s := range sets {
		sets[s] = make(map[string]*childResult)
		for _, w := range workloadNames {
			fmt.Fprintf(os.Stderr, "selfcheck: set %d, %s\n", s+1, w)
			res, err := runChild(w, seed, seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "selfcheck:", err)
				return 1
			}
			sets[s][w] = res
		}
	}

	var b strings.Builder
	status := 0
	fmt.Fprintf(&b, "| workload | metric | set 1 | set 2 | difference | bound | as the clock read it: difference |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
	for _, w := range workloadNames {
		one, two := sets[0][w], sets[1][w]
		if !one.Correct || !two.Correct {
			fmt.Fprintf(&b, "| %s | FAILED OPS | %d | %d | | | |\n", w, one.Failed, two.Failed)
			status = 1
		}
		for _, m := range spec.EndToEnd {
			a, c := one.Metrics[m.Name].Value, two.Metrics[m.Name].Value
			diff := math.Abs(c-a) / a
			verdict := ""
			if diff > m.Bound {
				verdict = " EXCEEDS"
				status = 1
			}
			rawCol := ""
			if ra, ok := one.raw[m.Name]; ok {
				rawCol = fmt.Sprintf("%.2f%%", 100*math.Abs(two.raw[m.Name]-ra)/ra)
			}
			fmt.Fprintf(&b, "| %s | %s (%s) | %.4g | %.4g | %.2f%%%s | %.0f%% | %s |\n",
				w, m.Name, m.Unit, a, c, 100*diff, verdict, 100*m.Bound, rawCol)
		}
	}
	fmt.Print(b.String())
	path := filepath.Join("out", "selfcheck.md")
	if err := os.MkdirAll("out", 0o755); err == nil {
		err = os.WriteFile(path, []byte(b.String()), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		return 1
	}
	if status != 0 {
		fmt.Println("selfcheck: FAILED — two sets of the same code disagree by more than a bound (or ops failed)")
	} else {
		fmt.Printf("selfcheck: ok — table also in bench/%s\n", path)
	}
	return status
}
