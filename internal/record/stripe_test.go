package record

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// mkChunk builds a chunk record backed by a pooled Buf, the way a
// stripe reader hands them to the assembler.
func mkChunk(typ ChunkType, seq uint64, payload []byte) ([]byte, *Buf) {
	buf := Get(ChunkHeader + len(payload))
	rec := append(buf.B[:0], chunkRec(typ, seq, payload)...)
	return rec, buf
}

type stripeRec struct {
	typ ChunkType
	seq uint64
	pl  []byte
}

// feedAll pushes records into the assembler, popping deliverable chunks
// into out as they become ready (the striped reader's loop shape).
func feedAll(t *testing.T, a *StripeAssembler, recs []stripeRec, out *bytes.Buffer) error {
	t.Helper()
	for _, r := range recs {
		rec, buf := mkChunk(r.typ, r.seq, r.pl)
		if err := a.Accept(rec, buf); err != nil {
			buf.Free()
			a.Release()
			return err
		}
		for {
			pl, b, ok := a.Pop()
			if !ok {
				break
			}
			out.Write(pl)
			b.Free()
		}
	}
	return nil
}

func TestStripeAssemblerReordersAcrossStripes(t *testing.T) {
	// 8 chunks fanned over 3 stripes, arriving in a shuffled order with
	// each stripe's FIN (total=8) mixed in.
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 10+i) }
	var recs []stripeRec
	for i := 0; i < 8; i++ {
		recs = append(recs, stripeRec{ChunkData, uint64(i), payload(i)})
	}
	for s := 0; s < 3; s++ {
		recs = append(recs, stripeRec{ChunkFIN, 8, nil})
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]stripeRec(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a := NewStripeAssembler(3, 0)
		var out bytes.Buffer
		if err := feedAll(t, a, shuffled, &out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !a.Done() {
			t.Fatalf("trial %d: not done (fins=%d pending=%d)", trial, a.fins, len(a.buffered))
		}
		var want bytes.Buffer
		for i := 0; i < 8; i++ {
			want.Write(payload(i))
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: reassembly corrupted", trial)
		}
	}
}

// A stripe that never FINs leaves the stream incomplete — Done stays
// false even though every byte arrived. This is the invariant that
// turns a dropped stripe into a detectable error instead of a silent
// truncation.
func TestStripeAssemblerMissingFINNeverDone(t *testing.T) {
	a := NewStripeAssembler(4, 0)
	var out bytes.Buffer
	for i := 0; i < 6; i++ {
		rec, buf := mkChunk(ChunkData, uint64(i), []byte("x"))
		if err := a.Accept(rec, buf); err != nil {
			t.Fatal(err)
		}
	}
	for {
		_, b, ok := a.Pop()
		if !ok {
			break
		}
		out.Write(nil)
		b.Free()
	}
	for s := 0; s < 3; s++ { // only 3 of 4 stripes FIN
		rec, buf := mkChunk(ChunkFIN, 6, nil)
		if err := a.Accept(rec, buf); err != nil {
			t.Fatal(err)
		}
		buf.Free()
	}
	if a.Done() {
		t.Fatal("stream complete with a missing stripe FIN")
	}
	if a.fins != 3 {
		t.Fatalf("FINs = %d", a.fins)
	}
}

// Silent truncation is impossible: if the chunks a dead stripe carried
// never arrive, the surviving FINs declare a total the cursor can't
// reach; if a FIN lies low, already-seen chunks contradict it.
func TestStripeAssemblerTruncationDetected(t *testing.T) {
	// Chunks 0,1,3,4 arrive (2 died with its stripe); FINs declare 5.
	a := NewStripeAssembler(2, 0)
	for _, seq := range []uint64{0, 1, 3, 4} {
		rec, buf := mkChunk(ChunkData, seq, []byte("d"))
		if err := a.Accept(rec, buf); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 2; s++ {
		rec, buf := mkChunk(ChunkFIN, 5, nil)
		if err := a.Accept(rec, buf); err != nil {
			t.Fatal(err)
		}
		buf.Free()
	}
	for {
		_, b, ok := a.Pop()
		if !ok {
			break
		}
		b.Free()
	}
	if a.Done() {
		t.Fatal("truncated stream reported complete")
	}
	a.Release()

	// A FIN declaring fewer chunks than already delivered is rejected.
	b := NewStripeAssembler(2, 0)
	for _, seq := range []uint64{0, 1, 2} {
		rec, buf := mkChunk(ChunkData, seq, []byte("d"))
		if err := b.Accept(rec, buf); err != nil {
			t.Fatal(err)
		}
	}
	rec, buf := mkChunk(ChunkFIN, 2, nil)
	if err := b.Accept(rec, buf); err == nil {
		t.Fatal("FIN below buffered high-water accepted")
	}
	buf.Free()
	b.Release()
}

func TestStripeAssemblerDisagreeingTotals(t *testing.T) {
	a := NewStripeAssembler(2, 0)
	rec, buf := mkChunk(ChunkFIN, 10, nil)
	if err := a.Accept(rec, buf); err != nil {
		t.Fatal(err)
	}
	buf.Free()
	rec, buf = mkChunk(ChunkFIN, 11, nil)
	if err := a.Accept(rec, buf); err == nil {
		t.Fatal("disagreeing FIN totals accepted")
	}
	buf.Free()
}

func TestStripeAssemblerViolations(t *testing.T) {
	type step struct {
		typ ChunkType
		seq uint64
		pl  []byte
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"duplicate chunk", []step{{ChunkData, 2, []byte("a")}, {ChunkData, 2, []byte("a")}}},
		{"replayed chunk", []step{{ChunkData, 0, []byte("a")}, {ChunkData, 0, []byte("a")}}},
		{"beyond total", []step{{ChunkFIN, 2, nil}, {ChunkData, 5, []byte("x")}}},
		{"window exceeded", []step{{ChunkData, uint64(DefaultStripeWindow), []byte("x")}}},
		{"oversized", []step{{ChunkData, 0, make([]byte, MaxChunkPayload+1)}}},
		{"FIN payload", []step{{ChunkFIN, 0, []byte("x")}}},
		{"unknown type", []step{{ChunkType(9), 0, nil}}},
		{"extra FIN", []step{{ChunkFIN, 0, nil}, {ChunkFIN, 0, nil}, {ChunkFIN, 0, nil}}},
	}
	for _, tc := range cases {
		a := NewStripeAssembler(2, 0)
		var lastErr error
		for _, s := range tc.steps {
			rec, buf := mkChunk(s.typ, s.seq, s.pl)
			lastErr = a.Accept(rec, buf)
			if lastErr != nil {
				buf.Free()
			}
			// Pop chunk 0 in the replay case so seq 0 is behind the cursor.
			if tc.name == "replayed chunk" {
				for {
					_, b, ok := a.Pop()
					if !ok {
						break
					}
					b.Free()
				}
			}
		}
		if lastErr == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if a.err == nil {
			t.Fatalf("%s: not poisoned", tc.name)
		}
		a.Release()
	}
}

// An ERROR record from any stripe aborts the stream with the peer's
// reason, even when it overtakes DATA chunks.
func TestStripeAssemblerErrorOvertakes(t *testing.T) {
	a := NewStripeAssembler(3, 0)
	rec, buf := mkChunk(ChunkError, 99, []byte("stripe 2 disk failed"))
	err := a.Accept(rec, buf)
	buf.Free()
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Msg != "stripe 2 disk failed" {
		t.Fatalf("stripe abort misclassified: %v", err)
	}
}

// The window releases as the cursor advances: a long stream crosses a
// small window as long as no chunk outruns it by more than the window.
func TestStripeWindowSlides(t *testing.T) {
	a := NewStripeAssembler(1, 4)
	var out bytes.Buffer
	for i := 0; i < 100; i += 2 {
		// Deliver pairs slightly out of order: i+1 before i.
		for _, seq := range []uint64{uint64(i + 1), uint64(i)} {
			rec, buf := mkChunk(ChunkData, seq, []byte(fmt.Sprintf("%03d.", seq)))
			if err := a.Accept(rec, buf); err != nil {
				t.Fatalf("seq %d: %v", seq, err)
			}
		}
		for {
			pl, b, ok := a.Pop()
			if !ok {
				break
			}
			out.Write(pl)
			b.Free()
		}
	}
	rec, buf := mkChunk(ChunkFIN, 100, nil)
	if err := a.Accept(rec, buf); err != nil {
		t.Fatal(err)
	}
	buf.Free()
	if !a.Done() {
		t.Fatal("not done")
	}
	var want bytes.Buffer
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&want, "%03d.", i)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatal("sliding window reassembly corrupted")
	}
}
