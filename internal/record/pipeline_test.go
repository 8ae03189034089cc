package record

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// pipeRoundTrip pushes payloads through a seal pipeline into an
// in-memory wire, then opens them back serially, and returns the
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
	hr := Headroom(p)
	for _, pt := range payloads {
		buf := Get(hr + len(pt) + p.WrapOverhead())
		copy(buf.B[hr:], pt)
		if err := pl.Submit(buf, len(pt)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	for range payloads {
		pt, buf, err := Read(&wire, q, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(pt)
		buf.Free()
	}
	if _, _, err := Read(&wire, q, 0, 0); err != io.EOF {
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
	hr := Headroom(p)
	var submitErr error
	for i := 0; i < 64; i++ {
		buf := Get(hr + 100 + p.WrapOverhead())
		if err := pl.Submit(buf, 100); err != nil {
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

// Interleaved pipelined records decrypt on the peer's *serial* path
// too: the pipeline changes scheduling, never the wire format.
func TestPipelineWireCompatibleWithSerialRead(t *testing.T) {
	p, q := newTestPair(t)
	var wire bytes.Buffer
	var mu sync.Mutex
	pl := NewPipeline(p, 4, 8, func(frames [][]byte) error {
		mu.Lock()
		defer mu.Unlock()
		for _, f := range frames {
			wire.Write(f)
		}
		return nil
	})
	hr := Headroom(p)
	for i := 0; i < 50; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 1000+i)
		buf := Get(hr + len(msg) + p.WrapOverhead())
		copy(buf.B[hr:], msg)
		if err := pl.Submit(buf, len(msg)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pt, buf, err := Read(&wire, q, 0, 0)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if len(pt) != 1000+i || pt[0] != byte(i) {
			t.Fatalf("record %d corrupted", i)
		}
		buf.Free()
	}
}
