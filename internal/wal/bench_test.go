// Benchmarks for the journal's append path: what one durable mutation
// costs as write concurrency grows. Every append blocks until its own
// record is fsynced; concurrent appends share fsyncs (group commit), so
// 64 writers' 64 records cost a handful of fsyncs, not 64. `make
// bench-ctrlplane` records the three rows into BENCH_ctrlplane.json;
// the falling ns/op at 8 and 64 writers is the group-commit claim of
// PR 10. The 1-writer row also gates allocs/op at the single frame
// buffer: batching never buys throughput with garbage.
package wal

import (
	"sync"
	"testing"
)

// benchmarkAppend drives b.N appends split across the given number of
// concurrent writers, each append blocking until its record is durable.
func benchmarkAppend(b *testing.B, writers int) {
	w, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		n := b.N / writers
		if g < b.N%writers {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := w.Append(1, payload); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

func BenchmarkWALAppend1(b *testing.B)  { benchmarkAppend(b, 1) }
func BenchmarkWALAppend8(b *testing.B)  { benchmarkAppend(b, 8) }
func BenchmarkWALAppend64(b *testing.B) { benchmarkAppend(b, 64) }
