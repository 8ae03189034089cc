package gsitransport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/gss"
	"repro/internal/record"
)

// splitConn hands the reader its source's bytes in reads no larger than
// the next split, and counts the reads that reach the source. The
// source is a live connection (whose writes, deadlines and Close the
// embedded Conn serves) or a recorded stream (nil Conn: only Read).
type splitConn struct {
	net.Conn
	src   io.Reader
	split func() int // the next read's largest size; 0 means any
	reads int
}

func (s *splitConn) Read(p []byte) (int, error) {
	s.reads++
	if n := s.split(); n > 0 && n < len(p) {
		p = p[:n]
	}
	return s.src.Read(p)
}

// cycle yields sizes in turn, forever.
func cycle(sizes ...int) func() int {
	i := 0
	return func() int { n := sizes[i%len(sizes)]; i++; return n }
}

// splitModes are the ways the tests cut a byte stream into reads.
func splitModes() map[string]func() func() int {
	return map[string]func() func() int{
		"one byte":  func() func() int { return cycle(1) },
		"coalesced": func() func() int { return cycle(0) },
		"4 KiB edge": func() func() int {
			return cycle(aheadSize-1, aheadSize+1, 3, aheadSize)
		},
		"random": func() func() int {
			rng := rand.New(rand.NewSource(7))
			return func() int { return 1 + rng.Intn(3*aheadSize) }
		},
	}
}

// readAheadSizes are plaintext sizes whose records straddle the 4 KiB
// edge (frames one short of, exactly, and one past it), coalesce several
// to a read, bypass the read-ahead, and end on a 256 KiB chunk record
// right after a 1 KiB one (last, so that few cuts read it one byte at a
// time).
func readAheadSizes() []int {
	edge := aheadSize - SendOverhead
	return []int{0, 1, 100, 1 << 10, edge - 1, edge, edge + 1, 7, 2*aheadSize + 5, 3, 1 << 10, 256 << 10}
}

// resumeNonce is the fixed nonce sealedStream resumes under: one sealed
// stream, and as many fresh receiving contexts for it as a test needs.
var resumeNonce = make([]byte, gss.ResumeNonceSize)

// sealedStream seals one record of each size under a context resumed
// from client's, and returns the stream, each record's offset in it, and
// a source of fresh receiving contexts (each opens the stream from its
// first record; anti-replay forbids reusing one).
func sealedStream(t testing.TB, client, server *Conn, sizes []int) ([]byte, []int, func() *gss.Context) {
	t.Helper()
	sender, err := client.Context().Resume(resumeNonce, resumeNonce)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(len(sizes))))
	var stream bytes.Buffer
	starts := make([]int, len(sizes))
	for i, n := range sizes {
		starts[i] = stream.Len()
		pt := make([]byte, n)
		rng.Read(pt)
		if err := record.SealAndWrite(&stream, sender, pt); err != nil {
			t.Fatal(err)
		}
	}
	return stream.Bytes(), starts, func() *gss.Context {
		receiver, err := server.Context().Resume(resumeNonce, resumeNonce)
		if err != nil {
			t.Fatal(err)
		}
		return receiver
	}
}

// drainConn reads records off c until the first error: opened plaintexts
// through ReceiveView, or sealed tokens straight off its read-ahead.
func drainConn(c *Conn, open bool) ([][]byte, error) {
	var got [][]byte
	for {
		var b []byte
		var buf *record.Buf
		var err error
		if open {
			b, buf, err = c.ReceiveView(context.Background())
		} else {
			b, buf, err = record.ReadSealed(&c.in, 0, 0)
		}
		if err != nil {
			return got, err
		}
		got = append(got, bytes.Clone(b))
		buf.Free()
	}
}

// drainUnsplit is the oracle: the record layer straight over the whole
// stream, no Conn and no read-ahead. A nil p reads sealed tokens.
func drainUnsplit(stream []byte, p *gss.Context) ([][]byte, error) {
	r := bytes.NewReader(stream)
	var got [][]byte
	for {
		var b []byte
		var buf *record.Buf
		var err error
		if p != nil {
			b, buf, err = record.Read(r, p, 0, 0)
		} else {
			b, buf, err = record.ReadSealed(r, 0, 0)
		}
		if err != nil {
			return got, err
		}
		got = append(got, bytes.Clone(b))
		buf.Free()
	}
}

// sameRecords fails t unless a Conn read exactly the oracle's records
// and stopped on the same error.
func sameRecords(t testing.TB, what string, got, want [][]byte, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: stopped on %v, the unsplit stream on %v", what, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, the unsplit stream has %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d differs (%d bytes, want %d)", what, i, len(got[i]), len(want[i]))
		}
	}
}

// streamCuts are the prefixes of a stream the tests read: the whole of
// it (a clean io.EOF at a record boundary) and one per record, in turn
// at its start (a clean EOF after fewer records), mid-prefix and
// mid-record (both io.ErrUnexpectedEOF).
func streamCuts(stream []byte, starts []int) []int {
	cuts := []int{len(stream)}
	for i, s := range starts {
		end := len(stream)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		cuts = append(cuts, []int{s, s + record.FramePrefix/2, (s + record.FramePrefix + end) / 2}[i%3])
	}
	return cuts
}

// Whatever the split, every cut of a record stream reads through a Conn
// as it reads straight off the unsplit bytes: the same records through
// ReceiveView, then the same error — also when the source hands its last
// bytes over together with io.EOF.
func TestReadAheadSplits(t *testing.T) {
	client, server := pipePair(t, newCreds(t))
	defer client.Close()
	stream, starts, receiver := sealedStream(t, client, server, readAheadSizes())
	sources := map[string]func([]byte) io.Reader{
		"plain":         func(b []byte) io.Reader { return bytes.NewReader(b) },
		"data with EOF": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
	}
	for name, mode := range splitModes() {
		for src, source := range sources {
			t.Run(name+"/"+src, func(t *testing.T) {
				for _, cut := range streamCuts(stream, starts) {
					prefix := stream[:cut]
					wantPT, wantPTErr := drainUnsplit(prefix, receiver())
					c := newConn(&splitConn{src: source(prefix), split: mode()})
					c.ctx = receiver()
					got, err := drainConn(c, true)
					sameRecords(t, fmt.Sprintf("ReceiveView, cut at %d", cut), got, wantPT, err, wantPTErr)
				}
			})
		}
	}
}

// The handshake reads its tokens through the read-ahead too: split any
// way on both ends, it completes and the records after it arrive intact;
// a truncated token fails as it does unsplit.
func TestReadAheadHandshakeSplits(t *testing.T) {
	creds := newCreds(t)
	for name, mode := range splitModes() {
		t.Run(name, func(t *testing.T) {
			// A desynchronized stream blocks on the pipe: fail, not hang.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cRaw, sRaw := net.Pipe()
			defer cRaw.Close()
			defer sRaw.Close()
			type result struct {
				conn *Conn
				err  error
			}
			accepted := make(chan result, 1)
			go func() {
				conn, err := ServerContext(ctx, &splitConn{Conn: sRaw, src: sRaw, split: mode()}, gss.Config{Credential: creds.host, TrustStore: creds.ts})
				accepted <- result{conn, err}
			}()
			client, err := ClientContext(ctx, &splitConn{Conn: cRaw, src: cRaw, split: mode()}, gss.Config{Credential: creds.alice, TrustStore: creds.ts})
			if err != nil {
				t.Fatalf("client handshake: %v", err)
			}
			sr := <-accepted
			if sr.err != nil {
				t.Fatalf("server handshake: %v", sr.err)
			}
			msgs := [][]byte{[]byte("ping"), bytes.Repeat([]byte{5}, 3*aheadSize), {}}
			echoed := make(chan error, 1)
			go func() {
				for range msgs {
					msg, err := sr.conn.ReceiveContext(ctx)
					if err == nil {
						err = sr.conn.SendContext(ctx, msg)
					}
					if err != nil {
						echoed <- err
						return
					}
				}
				echoed <- nil
			}()
			for _, m := range msgs {
				if err := client.SendContext(ctx, m); err != nil {
					t.Fatal(err)
				}
				if reply, err := client.ReceiveContext(ctx); err != nil || !bytes.Equal(reply, m) {
					t.Fatalf("echo of %d bytes: %d bytes back, %v", len(m), len(reply), err)
				}
			}
			if err := <-echoed; err != nil {
				t.Fatal(err)
			}
		})
	}
	hdr := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	truncated := map[string][]byte{
		"nothing":     nil,
		"mid-prefix":  {0, 0},
		"mid-token":   append(hdr(100), make([]byte, 50)...),
		"jumbo token": append(hdr(1<<20), make([]byte, 3*aheadSize)...),
	}
	for name, stream := range truncated {
		_, want := drainUnsplit(stream, nil)
		for mode, split := range splitModes() {
			_, err := Server(&splitConn{src: bytes.NewReader(stream), split: split()}, gss.Config{Credential: creds.host, TrustStore: creds.ts})
			if !errors.Is(err, want) {
				t.Fatalf("%s token, split %s: %v, want %v", name, mode, err, want)
			}
		}
	}
}

// A small record whose bytes are already queued costs one read of the
// socket — prefix and body together — and once it is consumed the
// connection holds no buffer.
func TestSmallRecordOneRead(t *testing.T) {
	client, server := pipePair(t, newCreds(t))
	defer client.Close()
	stream, _, receiver := sealedStream(t, client, server, []int{1 << 10})
	raw := &splitConn{src: bytes.NewReader(stream), split: cycle(0)}
	c := newConn(raw)
	c.ctx = receiver()
	before := record.PoolStats()
	view, buf, err := c.ReceiveView(context.Background())
	if err != nil || len(view) != 1<<10 {
		t.Fatalf("ReceiveView: %d bytes, %v", len(view), err)
	}
	buf.Free()
	after := record.PoolStats()
	if raw.reads != 1 {
		t.Fatalf("a queued 1 KiB record took %d reads of the socket, want 1", raw.reads)
	}
	if gets, frees := after.Gets-before.Gets, after.Frees-before.Frees; gets != frees || c.in.buf != nil {
		t.Fatalf("record consumed, but %d pooled buffers taken and %d returned", gets, frees)
	}
}

// FuzzReadAheadSplits: a random record sequence, cut short anywhere and
// read in random splits, gives through the read-ahead exactly the records
// and the error of the unsplit stream. layout holds the records' sizes
// (two bytes each), splits the read sizes in turn (0: any).
func FuzzReadAheadSplits(f *testing.F) {
	f.Add([]byte{0, 10, 4, 0, 0, 0, 16, 0}, []byte{1}, uint16(0))
	f.Add([]byte{15, 224, 15, 225, 0, 5}, []byte{0}, uint16(3))
	f.Add([]byte{4, 0, 255, 255, 0, 1}, []byte{64, 3, 200}, uint16(700))
	f.Fuzz(func(t *testing.T, layout, splits []byte, cut uint16) {
		var stream []byte
		for i := 0; i+1 < len(layout) && i < 32; i += 2 {
			n := int(binary.BigEndian.Uint16(layout[i:]))
			stream = binary.BigEndian.AppendUint32(stream, uint32(n))
			stream = append(stream, bytes.Repeat([]byte{byte(i)}, n)...)
		}
		stream = stream[:len(stream)-min(int(cut), len(stream))]
		sizes := []int{0}
		if len(splits) > 0 {
			sizes = sizes[:0]
			for _, b := range splits {
				sizes = append(sizes, int(b)*int(b)/8)
			}
		}
		want, wantErr := drainUnsplit(stream, nil)
		got, err := drainConn(newConn(&splitConn{src: bytes.NewReader(stream), split: cycle(sizes...)}), false)
		sameRecords(t, "read-ahead", got, want, err, wantErr)
	})
}
