package gsitransport

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// The ways a receiver can take a stream's bytes. WriteTo skips a copy,
// not a check: each must deliver what the others do and end as they do.
var drains = []struct {
	name string
	run  func(*Stream) ([]byte, error)
}{
	{"Read", func(st *Stream) ([]byte, error) {
		var out bytes.Buffer
		_, err := io.CopyBuffer(&out, struct{ io.Reader }{st}, make([]byte, 1000))
		return out.Bytes(), err
	}},
	{"ReadAll", func(st *Stream) ([]byte, error) { return st.ReadAll(0) }},
	{"WriteTo", func(st *Stream) ([]byte, error) {
		var out bytes.Buffer
		n, err := st.WriteTo(&out)
		if n != int64(out.Len()) {
			err = errors.Join(err, errors.New("WriteTo's count disagrees with what it wrote"))
		}
		return out.Bytes(), err
	}},
	{"Read then WriteTo", func(st *Stream) ([]byte, error) {
		// The first bytes go to Read, which leaves most of a chunk
		// current: WriteTo must start with the rest of it.
		var out bytes.Buffer
		if _, err := io.CopyN(&out, struct{ io.Reader }{st}, 1000); err != nil {
			return out.Bytes(), err
		}
		_, err := st.WriteTo(&out)
		return out.Bytes(), err
	}},
	{"Read then ReadAll", func(st *Stream) ([]byte, error) {
		head := make([]byte, 1000)
		if _, err := io.ReadFull(st, head); err != nil {
			return nil, err
		}
		rest, err := st.ReadAll(0)
		return append(head, rest...), err
	}},
}

func TestWriteToMatchesReadAndReadAll(t *testing.T) {
	payload := finishPayload()
	for _, k := range []int{1, 3} {
		for _, d := range drains {
			t.Run(laneName(k)+"/"+d.name+"/clean end", func(t *testing.T) {
				clients, servers := stripedPairs(t, newCreds(t), k)
				sent := make(chan error, 1)
				go func() {
					st := NewTransfer(nil, clients, Send)
					_, err := st.Write(payload)
					sent <- errors.Join(err, st.Finish(nil))
				}()
				st := NewTransfer(nil, servers, Recv)
				got, err := d.run(st)
				if err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("delivered %d of %d bytes, err=%v", len(got), len(payload), err)
				}
				if err := st.Finish(nil); err != nil {
					t.Fatalf("Finish: %v", err)
				}
				if err := <-sent; err != nil {
					t.Fatalf("sender: %v", err)
				}
				pingAll(t, clients, servers)
			})
			t.Run(laneName(k)+"/"+d.name+"/peer abort", func(t *testing.T) {
				clients, servers := stripedPairs(t, newCreds(t), k)
				sent := make(chan error, 1)
				go func() {
					st := NewTransfer(nil, clients, Send)
					_, err := st.Write(payload)
					sent <- errors.Join(err, st.Finish(errors.New("source went away")))
				}()
				st := NewTransfer(nil, servers, Recv)
				got, err := d.run(st)
				if !isPeerError(err, "source went away") {
					t.Fatalf("delivered %d bytes and ended %v, want the abort reason", len(got), err)
				}
				if !bytes.HasPrefix(payload, got) {
					t.Fatal("bytes delivered before the abort are not a prefix of the stream")
				}
				if err := st.Finish(nil); !isPeerError(err, "source went away") {
					t.Fatalf("Finish: %v, want the peer abort", err)
				}
				if err := <-sent; err != nil {
					t.Fatalf("sender: %v", err)
				}
				pingAll(t, clients, servers)
			})
		}
	}
}

func laneName(k int) string {
	if k == 1 {
		return "1conn"
	}
	return "3lanes"
}

// fullWriter takes limit bytes and then fails the way it was told to.
type fullWriter struct {
	limit int
	short bool // accept part of the write and report no error
	got   bytes.Buffer
}

var errDiskFull = errors.New("disk full")

func (w *fullWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.got.Len(); room < len(p) {
		w.got.Write(p[:room])
		if w.short {
			return room, nil
		}
		return room, errDiskFull
	}
	return w.got.Write(p)
}

// A writer that fails ends WriteTo with its error (a short write with
// io.ErrShortWrite), what it took is a prefix of the stream, and Finish
// still consumes the rest: the connections come back synchronized.
func TestWriteToStopsAtAFailedWriteAndFinishStillSettles(t *testing.T) {
	payload := finishPayload()
	for _, k := range []int{1, 3} {
		for _, short := range []bool{false, true} {
			want := errDiskFull
			if short {
				want = io.ErrShortWrite
			}
			t.Run(laneName(k)+"/"+want.Error(), func(t *testing.T) {
				clients, servers := stripedPairs(t, newCreds(t), k)
				sent := make(chan error, 1)
				go func() {
					st := NewTransfer(nil, clients, Send)
					_, err := st.Write(payload)
					sent <- errors.Join(err, st.Finish(nil))
				}()
				st := NewTransfer(nil, servers, Recv)
				w := &fullWriter{limit: len(payload) / 2, short: short}
				n, err := st.WriteTo(w)
				if !errors.Is(err, want) {
					t.Fatalf("WriteTo: %v, want %v", err, want)
				}
				if n != int64(w.limit) || !bytes.Equal(w.got.Bytes(), payload[:w.limit]) {
					t.Fatalf("WriteTo reported %d bytes; the writer holds %d, want the first %d", n, w.got.Len(), w.limit)
				}
				if err := st.Finish(nil); err != nil {
					t.Fatalf("Finish after a failed write: %v", err)
				}
				if err := <-sent; err != nil {
					t.Fatalf("sender: %v", err)
				}
				pingAll(t, clients, servers)
			})
		}
	}
}
