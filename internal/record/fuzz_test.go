package record

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzPair builds a fresh protector pair per input so sequence state
// never leaks between runs.
func fuzzPair(t testing.TB) (send, recv *testProtector) {
	return newTestPair(t)
}

// FuzzRecordRoundTrip drives the sealed record layer from both ends:
// any payload must survive WriteAssembled -> Read intact, and arbitrary
// wire bytes fed to Read must fail cleanly (no panic, no crash, no
// acceptance of unauthenticated data).
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte("payload"), []byte{0, 0, 0, 3, 1, 2, 3})
	f.Add([]byte{}, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{7}, 5000), []byte{0, 0})
	f.Fuzz(func(t *testing.T, payload, hostile []byte) {
		if len(payload) > 1<<20 {
			return
		}
		send, recv := fuzzPair(t)

		// Round trip: assemble -> seal in place -> read -> open in place.
		hr := Headroom(send)
		buf := Get(hr + len(payload) + send.WrapOverhead())
		frame := append(buf.B[:hr], payload...)
		var wireBuf bytes.Buffer
		if err := WriteAssembled(&wireBuf, send, frame); err != nil {
			t.Fatalf("seal: %v", err)
		}
		buf.Free()
		pt, rbuf, err := Read(&wireBuf, recv, 0, 0)
		if err != nil {
			t.Fatalf("read back own record: %v", err)
		}
		if !bytes.Equal(pt, payload) {
			t.Fatalf("round trip corrupted: %d != %d bytes", len(pt), len(payload))
		}
		rbuf.Free()

		// Hostile wire bytes must never be accepted as a record (the
		// protector's AEAD would have to be forged) and never panic.
		if pt, rbuf, err := Read(bytes.NewReader(hostile), recv, 0, 0); err == nil {
			rbuf.Free()
			t.Fatalf("unauthenticated record accepted: %d bytes", len(pt))
		}
	})
}

// FuzzStreamReassembly feeds the chunk assembler arbitrary record
// sequences: truncated headers, reordered/duplicated sequence numbers,
// oversized chunks, traffic after termination. The assembler must never
// panic, must reject every sequence violation, and — when the input is
// a faithful sender transcript — must reproduce the sender's byte
// stream exactly.
func FuzzStreamReassembly(f *testing.F) {
	f.Add([]byte("hello world"), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(3))
	f.Add([]byte{}, []byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 9}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xAB}, 1000), []byte{3, 0, 0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, stream, hostile []byte, chunkLen uint8) {
		// Faithful transcript: sender chunks the stream, assembler must
		// reproduce it.
		size := int(chunkLen) + 1
		var s ChunkSender
		var a Assembler
		var rebuilt []byte
		for off := 0; off < len(stream); off += size {
			end := off + size
			if end > len(stream) {
				end = len(stream)
			}
			rec, err := s.AppendData(nil, stream[off:end])
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			pl, fin, err := a.Accept(rec)
			if err != nil || fin {
				t.Fatalf("faithful chunk rejected: %v", err)
			}
			rebuilt = append(rebuilt, pl...)
		}
		finRec, err := s.AppendFIN(nil)
		if err != nil {
			t.Fatalf("fin: %v", err)
		}
		if _, fin, err := a.Accept(finRec); err != nil || !fin {
			t.Fatalf("faithful FIN rejected: %v", err)
		}
		if !bytes.Equal(rebuilt, stream) {
			t.Fatalf("reassembly corrupted: %d != %d bytes", len(rebuilt), len(stream))
		}

		// Post-FIN traffic must be rejected.
		if _, _, err := a.Accept(AppendChunk(nil, ChunkData, s.seq, nil)); err == nil {
			t.Fatal("chunk after FIN accepted")
		}

		// Hostile records against a fresh assembler: never panic, and
		// only strictly sequential records starting at 0 may pass.
		var h Assembler
		if pl, fin, err := h.Accept(hostile); err == nil {
			typ, seq, body, perr := ParseChunk(hostile)
			if perr != nil || seq != 0 {
				t.Fatalf("hostile record accepted: type=%d seq=%d", typ, seq)
			}
			if typ == ChunkData && !bytes.Equal(pl, body) {
				t.Fatal("payload view diverges from parse")
			}
			if fin != (typ == ChunkFIN) {
				t.Fatal("fin flag diverges from type")
			}
		}

		// Mutated duplicates of a valid transcript: flipping the seq of
		// the second chunk must poison the stream.
		var s2 ChunkSender
		var a2 Assembler
		r1, _ := s2.AppendData(nil, []byte("one"))
		r2, _ := s2.AppendData(nil, []byte("two"))
		if _, _, err := a2.Accept(r1); err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(r2[1:], binary.BigEndian.Uint64(hostileSeq(hostile)))
		if binary.BigEndian.Uint64(r2[1:]) != 1 {
			if _, _, err := a2.Accept(r2); err == nil {
				t.Fatal("out-of-sequence chunk accepted")
			}
		}
	})
}

// hostileSeq derives 8 bytes of attacker-chosen sequence from the fuzz
// input.
func hostileSeq(b []byte) []byte {
	out := make([]byte, 8)
	copy(out, b)
	return out
}

// FuzzStripeReassembly drives the windowed stripe assembler two ways.
// A faithful striped transcript — the stream chunked, stamped with
// global sequence numbers, dealt round-robin across K stripes, each
// stripe's arrival order preserved but the stripes interleaved by the
// fuzzer's schedule — must reassemble to exactly the sender's bytes
// with Done() true. Arbitrary hostile records must never panic the
// assembler, never deliver a byte out of order, and never reach Done()
// without a complete, FIN-agreed population.
func FuzzStripeReassembly(f *testing.F) {
	f.Add([]byte("striped payload bytes"), uint8(3), uint8(2), []byte{0, 1, 2, 1, 0})
	f.Add(bytes.Repeat([]byte{0xC3}, 500), uint8(7), uint8(4), []byte{3, 3, 3, 0})
	f.Add([]byte{}, uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, stream []byte, chunkLen, stripeCount uint8, schedule []byte) {
		size := int(chunkLen) + 1
		stripes := int(stripeCount)%8 + 1

		// Deal DATA chunks round-robin; every stripe ends with a FIN
		// carrying the global total.
		type rec struct {
			typ ChunkType
			seq uint64
			pl  []byte
		}
		lanes := make([][]rec, stripes)
		var total uint64
		for off := 0; off < len(stream); off += size {
			end := off + size
			if end > len(stream) {
				end = len(stream)
			}
			lane := int(total) % stripes
			lanes[lane] = append(lanes[lane], rec{ChunkData, total, stream[off:end]})
			total++
		}
		for i := range lanes {
			lanes[i] = append(lanes[i], rec{ChunkFIN, total, nil})
		}

		// Interleave lanes by the fuzzer's schedule (round-robin once a
		// lane's schedule bytes run out). Per-lane order is preserved —
		// that is what a real TCP stripe guarantees.
		a := NewStripeAssembler(stripes, int(total)+1)
		var rebuilt []byte
		cursor := make([]int, stripes)
		deliver := func(lane int) {
			r := lanes[lane][cursor[lane]]
			cursor[lane]++
			raw, buf := mkChunk(r.typ, r.seq, r.pl)
			if err := a.Accept(raw, buf); err != nil {
				buf.Free()
				t.Fatalf("faithful striped record rejected: %v", err)
			}
			if r.typ == ChunkFIN {
				buf.Free()
			}
			for {
				pl, b, ok := a.Pop()
				if !ok {
					break
				}
				rebuilt = append(rebuilt, pl...)
				b.Free()
			}
		}
		si := 0
		for remaining := true; remaining; {
			remaining = false
			lane := -1
			if si < len(schedule) {
				lane = int(schedule[si]) % stripes
				si++
			}
			if lane < 0 || cursor[lane] >= len(lanes[lane]) {
				for l := 0; l < stripes; l++ {
					if cursor[l] < len(lanes[l]) {
						lane = l
						break
					}
				}
			}
			if lane >= 0 && cursor[lane] < len(lanes[lane]) {
				deliver(lane)
			}
			for l := 0; l < stripes; l++ {
				if cursor[l] < len(lanes[l]) {
					remaining = true
				}
			}
		}
		if !a.Done() {
			t.Fatalf("faithful striped transcript incomplete: fins=%d/%d pending=%d", a.fins, stripes, len(a.buffered))
		}
		if !bytes.Equal(rebuilt, stream) {
			t.Fatalf("striped reassembly corrupted: %d != %d bytes", len(rebuilt), len(stream))
		}

		// Hostile: feed the schedule bytes themselves as records into a
		// fresh assembler. No panic; if anything is delivered it must be
		// in strictly increasing global order starting at 0.
		h := NewStripeAssembler(2, 16)
		hostile := AppendChunk(nil, ChunkType(stripeCount), uint64(chunkLen), schedule)
		if err := h.Accept(hostile, nil); err == nil {
			next := uint64(0)
			for {
				_, _, ok := h.Pop()
				if !ok {
					break
				}
				next++
			}
			_ = next
		}
		h.Release()
	})
}
