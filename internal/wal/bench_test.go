// Benchmarks for the journal's append path, for profiling: what one
// durable mutation costs as write concurrency grows. Every append blocks
// until its own record is fsynced; concurrent appends share fsyncs
// (group commit), so 64 writers' 64 records cost a handful of fsyncs,
// not 64.
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
