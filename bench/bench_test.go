package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/pkg/gsi"
)

// testScale is the benchmark's world shrunk until a run takes a
// fraction of a second; the code that runs is the same.
var testScale = scale{
	voMembers:  400,
	gridmap:    300,
	fillers:    64,
	walTail:    8,
	users:      6,
	subjects:   60,
	hotSet:     8,
	writeEvery: 50,
	stageBytes: 8 << 10,
	echoBytes:  1 << 10,
	bulkBytes:  1 << 20,
}

// testOps is how many ops a slice runs per workload in fixed-count mode.
var testOps = map[string]int{"short_jobs": 3, "pooled_rpc": 200, "bulk_transfer": 2, "authz_churn": 300}

func testConfig(t *testing.T, workload string, seed int64) runConfig {
	return runConfig{
		workload:  workload,
		seed:      seed,
		sc:        testScale,
		reps:      2,
		slices:    2,
		sliceOps:  testOps[workload],
		warmupOps: testOps[workload] / 2,
		scratch:   filepath.Join(t.TempDir(), "scratch"),
		quiet:     os.Getenv("BENCH_TEST_VERBOSE") == "",
	}
}

func mustRun(t *testing.T, cfg runConfig) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.workload, cfg.seed, err)
	}
	return res
}

// skipStripedGetUnderRace: internal/gridftp's striped GET may deliver a
// DATA record on the last-joined stripe before that stripe's JOIN
// reply, and under the race detector's timing it always does; the
// client then fails the transfer. The benchmark reports that as a
// failed op; the determinism tests cannot run on top of it.
func skipStripedGetUnderRace(t *testing.T, workload string) {
	if raceDetector && workload == "bulk_transfer" {
		t.Skip("striped GET in internal/gridftp loses its JOIN-reply race under -race (repo defect, not fixed by the benchmark change)")
	}
}

// The counters the program itself keeps that a fixed op sequence fixes.
var deterministicCounters = []string{"authz.cache_hits", "authz.cache_misses", "wal.records", "pool.dials", "gram.grim_runs"}

// TestSameSeedSameRun: one seed gives one op sequence and one set of
// counts; another seed gives another sequence.
func TestSameSeedSameRun(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			skipStripedGetUnderRace(t, w)
			a := mustRun(t, testConfig(t, w, 7))
			b := mustRun(t, testConfig(t, w, 7))
			if a.failed != 0 || a.failOpens != 0 {
				t.Fatalf("failed ops on a clean run: %d failed, %d fail-open: %v", a.failed, a.failOpens, a.errs)
			}
			if a.digest != b.digest {
				t.Errorf("same seed, different op sequence: %016x vs %016x", a.digest, b.digest)
			}
			if a.attempted != b.attempted {
				t.Errorf("same seed, attempted %d vs %d", a.attempted, b.attempted)
			}
			for _, c := range deterministicCounters {
				if a.counters[c] != b.counters[c] {
					t.Errorf("same seed, %s = %v vs %v", c, a.counters[c], b.counters[c])
				}
			}
			// bulk_transfer's schedule alternates two payloads whatever the
			// seed; what the seed changes there is the payload bytes.
			if w != "bulk_transfer" && w != "pooled_rpc" {
				if c := mustRun(t, testConfig(t, w, 8)); c.digest == a.digest {
					t.Errorf("seeds 7 and 8 gave the same op sequence %016x", a.digest)
				}
			}
		})
	}
}

// TestWrongOutputsAreFailedOps damages one kind of output per workload
// and expects exactly the damaged ops to be counted as failed: a wrong
// echo, a flipped stage-in digest, a flipped transfer byte, a forged
// permit.
func TestWrongOutputsAreFailedOps(t *testing.T) {
	hit := func(i int) bool { return i%5 == 2 }
	expect := func(cfg runConfig, perOp int) int {
		ops := 1 + cfg.warmupOps + cfg.slices*cfg.sliceOps
		n := 0
		for i := 0; i < ops; i++ {
			if hit(i) {
				n += perOp
			}
		}
		return n * cfg.reps
	}

	t.Run("wrong echo", func(t *testing.T) {
		cfg := testConfig(t, "pooled_rpc", 7)
		cfg.tamper = func(in instance) {
			in.(*pooledInstance).corrupt = func(i int, reply []byte) {
				if hit(i) {
					reply[len(reply)/2] ^= 1
				}
			}
		}
		if res := mustRun(t, cfg); res.failed != expect(cfg, 1) {
			t.Errorf("failed = %d, want %d", res.failed, expect(cfg, 1))
		}
	})
	t.Run("flipped digest", func(t *testing.T) {
		cfg := testConfig(t, "short_jobs", 7)
		cfg.tamper = func(in instance) {
			in.(*shortJobsInstance).corrupt = func(i int, frame []byte) []byte {
				if !hit(i) {
					return frame
				}
				bad := append([]byte(nil), frame...)
				bad[8] ^= 1 // first byte of the announced SHA-256
				return bad
			}
		}
		if res := mustRun(t, cfg); res.failed != expect(cfg, 1) {
			t.Errorf("failed = %d, want %d: %v", res.failed, expect(cfg, 1), res.errs)
		}
	})
	t.Run("flipped transfer byte", func(t *testing.T) {
		skipStripedGetUnderRace(t, "bulk_transfer")
		cfg := testConfig(t, "bulk_transfer", 7)
		cfg.tamper = func(in instance) {
			// leg is op*4 + leg index; damage the single-stream GET of the
			// chosen ops.
			in.(*bulkInstance).corrupt = func(leg int, got []byte) {
				if leg%4 == 1 && hit(leg/4) {
					got[0] ^= 1
				}
			}
		}
		if res := mustRun(t, cfg); res.failed != expect(cfg, 1) {
			t.Errorf("failed = %d, want %d: %v", res.failed, expect(cfg, 1), res.errs)
		}
	})
	t.Run("forged permit", func(t *testing.T) {
		cfg := testConfig(t, "authz_churn", 7)
		forged := 0
		cfg.tamper = func(in instance) {
			in.(*authzInstance).forge = func(i int, d *gsi.AuthzDecision) {
				if d.Decision != gsi.Permit {
					d.Decision = gsi.Permit
					forged++
				}
			}
		}
		res := mustRun(t, cfg)
		if forged == 0 {
			t.Fatal("the schedule never drew a must-deny subject")
		}
		if res.failOpens != forged || res.failed != forged {
			t.Errorf("forged %d permits; counted %d failed, %d fail-open", forged, res.failed, res.failOpens)
		}
	})
}

// TestCatalogueMatchesContract: BENCHMARK.json and the metric catalogue
// name the same metrics with the same units, and the workloads agree.
func TestCatalogueMatchesContract(t *testing.T) {
	spec, err := readBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end %d: %s (%s) in BENCHMARK.json, %s (%s) in the catalogue", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(spec.PerLayer), len(perLayerDefs))
	}
	for i, m := range spec.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: %s (%s) in BENCHMARK.json, %s (%s) in the catalogue", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d in BENCHMARK.json, default -seconds %d", spec.RunSeconds, defaultSeconds)
	}
}
