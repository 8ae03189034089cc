// Benchmarks for the record-layer refactor (PR 5): what the pooled,
// zero-copy, chunked data path buys over the pre-refactor one.
//
//   - BenchmarkWholeMessageTransfer64M reconstructs the old path
//     faithfully: 64 MiB crosses as four 16 MiB monolithic messages,
//     each Wrap-allocated, framed with a trusted-length ReadFrame
//     (up-front make), fully buffered at every hop, and acknowledged
//     per message — the shape the old gridftp Put had.
//   - BenchmarkStreamTransfer64M is the refactored path: the same
//     64 MiB as a streamed gridftp PUT in 256 KiB records through
//     pooled buffers, sealed and opened in place. (On multicore hosts
//     the chunked path additionally pipelines the sender's seal
//     against the receiver's open; single-core CI measures only the
//     per-byte work removed.)
//
// BENCH_record.json holds both rows (plus the steady-state exchange and
// the idle-probe benchmarks, whose allocs/op `make gate-allocs` gates
// via cmd/bench2json).
package repro

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcrypto"
	"repro/internal/gridftp"
	"repro/internal/wire"
	"repro/pkg/gsi"
)

const transferSize = 64 << 20

// settleHeap runs the collector to a steady state so one transfer
// benchmark's heap residue cannot skew the GC pacing of the next
// (a recorded run additionally gives each its own process).
func settleHeap() {
	runtime.GC()
	runtime.GC()
}

func transferPayload() []byte {
	data := make([]byte, transferSize)
	for i := range data {
		data[i] = byte(i>>12) ^ byte(i)
	}
	return data
}

// legacyReadFrame is the pre-refactor frame reader: it trusts the
// announced length with one up-front allocation, exactly like the old
// wire.ReadFrame the DoS fix replaced. Kept here so the baseline
// faithfully reproduces the old costs.
func legacyReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > wire.MaxField {
		return nil, fmt.Errorf("frame of %d exceeds cap", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// legacyContext reproduces the pre-refactor gss.Context data path
// byte for byte (from git history): Wrap sealed into a fresh
// ciphertext slice and framed it through an append-grown encoder;
// Unwrap copied the ciphertext back out of the token with
// Decoder.Bytes before decrypting into another fresh buffer.
type legacyContext struct {
	sealer *gridcrypto.Sealer
	opener *gridcrypto.Opener
}

var legacyAAD = []byte("gsi3 wrap")

func newLegacyPair(b *testing.B) (client, server *legacyContext) {
	b.Helper()
	keyCS := bytes.Repeat([]byte{0xC5}, gridcrypto.AEADKeySize)
	keySC := bytes.Repeat([]byte{0x5C}, gridcrypto.AEADKeySize)
	mk := func(sendKey, recvKey []byte) *legacyContext {
		s, err := gridcrypto.NewSealer(sendKey)
		if err != nil {
			b.Fatal(err)
		}
		o, err := gridcrypto.NewOpener(recvKey)
		if err != nil {
			b.Fatal(err)
		}
		return &legacyContext{sealer: s, opener: o}
	}
	return mk(keyCS, keySC), mk(keySC, keyCS)
}

func (c *legacyContext) wrap(plaintext []byte) ([]byte, error) {
	seq, ct, err := c.sealer.Seal(plaintext, legacyAAD) // fresh ciphertext slice
	if err != nil {
		return nil, err
	}
	return wire.NewEncoder().U64(seq).Bytes(ct).Finish(), nil // encoder copy
}

func (c *legacyContext) unwrap(wrapped []byte) ([]byte, error) {
	d := wire.NewDecoder(wrapped)
	seq := d.U64()
	ct := d.Bytes() // copied out of the token
	if err := d.Done(); err != nil {
		return nil, err
	}
	return c.opener.Open(seq, ct, legacyAAD) // fresh plaintext
}

// BenchmarkWholeMessageTransfer64M: the old whole-message data path.
func BenchmarkWholeMessageTransfer64M(b *testing.B) {
	ictx, actx := newLegacyPair(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()

	// The old cap bounded the *wrapped frame* at 16 MiB, so whole
	// messages topped out just below it: 64 MiB crossed as four
	// near-16 MiB messages plus change.
	const msgSize = wire.MaxField - 256
	serverErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		defer conn.Close()
		store := make(map[string][]byte)
		for i := 0; ; i++ {
			frame, err := legacyReadFrame(conn)
			if err != nil {
				serverErr <- nil // client hung up at the end
				return
			}
			msg, err := actx.unwrap(frame)
			if err != nil {
				serverErr <- err
				return
			}
			// The old exchange decode copied the body out of the request
			// (Decoder.Bytes, not a view) before the handler ran …
			d := wire.NewDecoder(msg)
			_ = d.Str()
			body := d.Bytes()
			// … and the old server buffered the whole message and copied
			// it into the store.
			store["/bench"] = append([]byte(nil), body...)
			ack, err := actx.wrap([]byte("OK"))
			if err != nil {
				serverErr <- err
				return
			}
			if err := wire.WriteFrame(conn, ack); err != nil {
				serverErr <- err
				return
			}
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	data := transferPayload()

	settleHeap()
	b.SetBytes(transferSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			// One untimed warmup transfer settles first-touch costs
			// (page residency, TCP ramp) that otherwise dominate short
			// runs on shared machines.
			settleHeap()
			b.ResetTimer()
		}
		for off := 0; off < len(data); off += msgSize {
			chunk := data[off:min(off+msgSize, len(data))]
			// Old client path: request-encoder copy, Wrap's
			// fresh-ciphertext + encoder-framing passes, two-write
			// frame, whole-message ack round trip.
			cmd := wire.NewEncoder().Str("PUT /bench").Bytes(chunk).Finish()
			w, err := ictx.wrap(cmd)
			if err != nil {
				b.Fatal(err)
			}
			if err := wire.WriteFrame(conn, w); err != nil {
				b.Fatal(err)
			}
			ackFrame, err := legacyReadFrame(conn)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ictx.unwrap(ackFrame); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	conn.Close()
	select {
	case err := <-serverErr:
		if err != nil {
			b.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		b.Fatal("server did not finish")
	}
}

type benchFTPWorld struct {
	trust *gsi.TrustStore
	alice *gsi.Credential
	host  *gsi.Credential
}

func newBenchFTPWorld(b *testing.B) *benchFTPWorld {
	b.Helper()
	authority, err := gsi.NewCA("/O=Grid/CN=Record CA", 24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		b.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host record"), 12*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	return &benchFTPWorld{trust: env.Trust(), alice: alice, host: host}
}

// BenchmarkStreamTransfer64M: the refactored path — a streamed gridftp
// PUT through the pooled record layer.
func BenchmarkStreamTransfer64M(b *testing.B) {
	world := newBenchFTPWorld(b)
	policy := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:   authz.EffectPermit,
		Subjects: []string{"/O=Grid/CN=Alice"},
		Actions:  []string{"read", "write", "delete", "list"},
	})
	srv, err := gridftp.NewServer("127.0.0.1:0", gridftp.NewStore(policy), world.host, world.trust)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := gridftp.Dial(srv.Addr(), world.alice, world.trust, srv.Identity())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	data := transferPayload()
	settleHeap()
	b.SetBytes(transferSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			// Untimed warmup, as in the whole-message baseline.
			settleHeap()
			b.ResetTimer()
		}
		n, err := client.PutFrom("/bench", bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if n != transferSize {
			b.Fatalf("transferred %d bytes", n)
		}
	}
}

// BenchmarkStripedTransfer64M: the PR 7 multicore path — the same
// 64 MiB as a striped gridftp PUT over 4 parallel data connections,
// each sealing and opening on its own goroutine. On a multicore host
// the stripes run on separate cores and wall clock drops toward 1/K of
// the single-stream path; on a single-core host (this CI box has one
// vCPU) it measures the same per-byte work plus coordination, so treat
// cross-machine comparisons accordingly (see DESIGN.md).
func BenchmarkStripedTransfer64M(b *testing.B) {
	world := newBenchFTPWorld(b)
	policy := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:   authz.EffectPermit,
		Subjects: []string{"/O=Grid/CN=Alice"},
		Actions:  []string{"read", "write", "delete", "list"},
	})
	srv, err := gridftp.NewServer("127.0.0.1:0", gridftp.NewStore(policy), world.host, world.trust)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := gridftp.Dial(srv.Addr(), world.alice, world.trust, srv.Identity())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	data := transferPayload()
	settleHeap()
	b.SetBytes(transferSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := -1; i < b.N; i++ {
		if i == 0 {
			settleHeap()
			b.ResetTimer()
		}
		if err := client.PutStriped("/bench", 4, data); err != nil {
			b.Fatal(err)
		}
	}
}
