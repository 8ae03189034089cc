package record

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// pipeRoundTrip pushes payloads through a seal pipeline as DATA chunks
// into an in-memory wire, then opens them back serially, and returns the
// reassembled byte stream.
func pipeRoundTrip(t *testing.T, workers, window int, payloads [][]byte) []byte {
	t.Helper()
	p, q := newTestPair(t)
	var wire bytes.Buffer
	var wireMu sync.Mutex
	sink := func(frames [][]byte) error {
		wireMu.Lock()
		defer wireMu.Unlock()
		for _, f := range frames {
			wire.Write(f)
		}
		return nil
	}
	pl := NewPipeline(p, workers, window, sink)
	for i, pt := range payloads {
		if err := pl.Submit(ChunkData, uint64(i), pt); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	var a Assembler
	for range payloads {
		rec, _, buf, err := ReadChunk(&wire, q, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pt, _, err := a.Accept(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(pt)
		buf.Free()
	}
	if _, _, _, err := ReadChunk(&wire, q, nil, 0); err != io.EOF {
		t.Fatalf("wire holds more than the submitted records: %v", err)
	}
	return out.Bytes()
}

// The pipeline must reproduce exactly the byte stream the serial path
// would have: submission order == wire order == delivery order, across
// worker counts and window sizes.
func TestPipelineRoundTripOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var payloads [][]byte
	var want bytes.Buffer
	for i := 0; i < 200; i++ {
		n := rng.Intn(8 << 10)
		pt := make([]byte, n)
		rng.Read(pt)
		payloads = append(payloads, pt)
		want.Write(pt)
	}
	for _, workers := range []int{1, 4} {
		for _, window := range []int{1, 3, 16} {
			got := pipeRoundTrip(t, workers, window, payloads)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("workers=%d window=%d: stream corrupted (%d vs %d bytes)",
					workers, window, len(got), want.Len())
			}
		}
	}
}

// A sink failure poisons the pipeline: later Submits fail, Close
// reports the error, and every in-flight buffer is freed (balanced
// pool accounting).
func TestPipelineSinkFailurePoisons(t *testing.T) {
	p := selfPair(t)
	sinkErr := errors.New("wire down")
	calls := 0
	pl := NewPipeline(p, 2, 4, func([][]byte) error {
		calls++
		return sinkErr
	})
	var submitErr error
	for i := 0; i < 64; i++ {
		if err := pl.Submit(ChunkData, uint64(i), make([]byte, 100)); err != nil {
			submitErr = err
			break
		}
	}
	if err := pl.Close(); !errors.Is(err, sinkErr) {
		t.Fatalf("Close() = %v", err)
	}
	if submitErr != nil && !errors.Is(submitErr, sinkErr) {
		t.Fatalf("Submit surfaced %v", submitErr)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after failing", calls)
	}
}

// Pipelined records are the serial path's records, byte for byte: the
// wire a pipeline writes equals WriteChunk's for the same chunks under
// the same key, and the peer's serial opener reads it.
func TestPipelineWireCompatibleWithSerialRead(t *testing.T) {
	p, q := newTestPair(t)
	serialSeal, _ := newTestPair(t)
	var wire, serial bytes.Buffer
	var mu sync.Mutex
	pl := NewPipeline(p, 4, 8, func(frames [][]byte) error {
		mu.Lock()
		defer mu.Unlock()
		for _, f := range frames {
			wire.Write(f)
		}
		return nil
	})
	for i := 0; i < 50; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 1000+i)
		if err := pl.Submit(ChunkData, uint64(i), msg); err != nil {
			t.Fatal(err)
		}
		if err := WriteChunk(&serial, serialSeal, ChunkData, uint64(i), msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Bytes(), serial.Bytes()) {
		t.Fatal("pipelined wire differs from the serial seal's")
	}
	for i := 0; i < 50; i++ {
		rec, _, buf, err := ReadChunk(&wire, q, nil, 0)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		typ, seq, pt, _ := ParseChunk(rec)
		if typ != ChunkData || seq != uint64(i) || len(pt) != 1000+i || pt[0] != byte(i) {
			t.Fatalf("record %d corrupted", i)
		}
		buf.Free()
	}
}
