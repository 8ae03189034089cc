package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/authz"
	"repro/internal/gridftp"
	"repro/pkg/gsi"
)

// bulkTransfer is the per-byte path: the same record layer as
// pooledRPC, used for throughput instead of latency, in both
// directions. One authenticated GridFTP session; an op is four legs of
// seeded pseudo-random bytes — PUT and GET over a single stream, PUT
// and GET over K stripes — each checked byte for byte. AEAD seal/open,
// the record stream and pipeline, stripe rendezvous and reassembly
// dominate and per-op costs vanish, so a buffer-class or flush change
// that helps small records and hurts streams (or helps PUT and hurts
// GET, or striped and single) shows here.
type bulkTransfer struct {
	cred   *gsi.Credential
	data   [2][]byte // alternated, so a leg cannot pass on the previous op's file
	store  *gridftp.Store
	server *gridftp.Server
}

var bulkLegs = [4]string{"gridftp.put_single", "gridftp.get_single", "gridftp.put_striped", "gridftp.get_striped"}

const (
	pathSingle  = "/bench/single"
	pathStriped = "/bench/striped"
)

func (b *bulkTransfer) prepare(w *world, rng *rand.Rand) (err error) {
	user, err := w.mintMember(0, false)
	if err != nil {
		return err
	}
	if b.cred, err = gsi.NewProxy(user, gsi.ProxyOptions{}); err != nil {
		return err
	}
	for i := range b.data {
		b.data[i] = make([]byte, w.sc.bulkBytes)
		rng.Read(b.data[i])
	}
	b.store = gridftp.NewStore(authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		ID:        "bench-files",
		Effect:    authz.EffectPermit,
		Subjects:  []string{user.Identity().String()},
		Resources: []string{"/bench/*"},
		Actions:   []string{"read", "write"},
	}))
	ftpHost, err := w.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host ftp.bench"), credLifetime)
	if err != nil {
		return err
	}
	b.server, err = gridftp.NewServer("127.0.0.1:0", b.store, ftpHost, w.env.Trust())
	return err
}

func (b *bulkTransfer) finish() {
	if b.server != nil {
		b.server.Close()
	}
}

type bulkInstance struct {
	wl      *bulkTransfer
	ds      *dataServer
	tr      *tracer
	trust   *gsi.TrustStore
	client  *gridftp.Client
	stripes int
	sum     uint64
	// legAllocs sums heap allocations over traced legs, legCount counts
	// them.
	legAllocs, legCount uint64
	retries             int // legs run a second time after a transport failure
	// corrupt, when set by the determinism test, damages what a GET leg
	// delivered before it is compared.
	corrupt func(i int, got []byte)
}

func (b *bulkTransfer) open(w *world, ds *dataServer, tr *tracer) (instance, error) {
	cenv, err := gsi.NewEnvironment(gsi.WithRoots(w.ca.Certificate()))
	if err != nil {
		return nil, err
	}
	in := &bulkInstance{wl: b, ds: ds, tr: tr, trust: cenv.Trust(), stripes: benchStripes()}
	if err := in.dial(); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *bulkInstance) dial() (err error) {
	in.client, err = gridftp.Dial(in.wl.server.Addr(), in.wl.cred, in.trust, in.wl.server.Identity())
	return err
}

// legTimeout bounds one attempt at a leg. GridFTP calls take no context,
// and a striped GET whose last stripe sees a DATA record before its
// JOIN reply (about one in ten thousand on this box) leaves the client
// waiting for a verdict the server never sends — a defect in
// internal/gridftp that this benchmark's tests found and a later change
// must fix. Closing the session ends the wait.
const legTimeout = 2 * time.Second

// wrongBytes is a leg that completed and delivered the wrong content:
// never retried, always a failed op.
type wrongBytes struct{ msg string }

func (e *wrongBytes) Error() string { return e.msg }

// compareWriter checks a download against the expected bytes as it
// arrives: every byte is compared, which is stricter than a digest and
// an order of magnitude cheaper, so the legs stay the op.
type compareWriter struct {
	want    []byte
	off     int
	bad     bool
	corrupt func(got []byte)
}

func (c *compareWriter) Write(p []byte) (int, error) {
	if c.corrupt != nil {
		c.corrupt(p)
		c.corrupt = nil
	}
	if c.off+len(p) > len(c.want) || !bytes.Equal(p, c.want[c.off:c.off+len(p)]) {
		c.bad = true
	}
	c.off += len(p)
	return len(p), nil
}

func (c *compareWriter) check() error {
	if c.bad || c.off != len(c.want) {
		return &wrongBytes{fmt.Sprintf("download differs from the %d bytes stored (%d received)", len(c.want), c.off)}
	}
	return nil
}

func (in *bulkInstance) step(i int) error {
	data := in.wl.data[i%2]
	in.sum = mix(in.sum, uint64(i%2))
	identity := in.wl.cred.Identity()
	op := in.tr.begin("op")
	defer in.tr.end(op)

	stored := func(path string) error {
		got, err := in.wl.store.Open(identity, path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			return &wrongBytes{fmt.Sprintf("%s: stored file differs from the %d bytes sent", path, len(data))}
		}
		return nil
	}
	download := func(leg int) *compareWriter {
		cw := &compareWriter{want: data}
		if in.corrupt != nil {
			cw.corrupt = func(got []byte) { in.corrupt(i*4+leg, got) }
		}
		return cw
	}
	legs := [4]func() error{
		func() error {
			if _, err := in.client.PutFrom(pathSingle, bytes.NewReader(data)); err != nil {
				return err
			}
			return stored(pathSingle)
		},
		func() error {
			cw := download(1)
			if _, err := in.client.GetTo(pathSingle, cw); err != nil {
				return err
			}
			return cw.check()
		},
		func() error {
			w, err := in.client.PutStripedWriter(pathStriped, in.stripes, int64(len(data)))
			if err != nil {
				return err
			}
			if _, err := w.Write(data); err != nil {
				w.Abort("bench: write failed")
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
			return stored(pathStriped)
		},
		func() error {
			r, err := in.client.GetStripedReader(pathStriped, in.stripes)
			if err != nil {
				return err
			}
			cw := download(3)
			_, err = io.Copy(cw, r)
			if cerr := r.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			return cw.check()
		},
	}
	var ms0, ms1 runtime.MemStats
	for leg, run := range legs {
		traced := in.tr != nil && in.tr.on
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		sp := in.tr.begin(bulkLegs[leg])
		err := in.attempt(run)
		var wrong *wrongBytes
		if err != nil && !errors.As(err, &wrong) {
			// A transfer client retries a transfer that failed in transport;
			// so does this one, once, on a new session, and says so.
			in.retries++
			fmt.Fprintf(os.Stderr, "bench: op %d: %s failed in transport (%v); retrying once\n", i, bulkLegs[leg], err)
			in.client.Close()
			if err = in.dial(); err == nil {
				err = in.attempt(run)
			}
		}
		in.tr.end(sp)
		if traced {
			runtime.ReadMemStats(&ms1)
			in.legAllocs += ms1.Mallocs - ms0.Mallocs
			in.legCount++
		}
		if err != nil {
			return fmt.Errorf("op %d: %s: %w", i, bulkLegs[leg], err)
		}
	}
	return nil
}

// attempt runs one leg under the watchdog.
func (in *bulkInstance) attempt(run func() error) error {
	session := in.client
	watchdog := time.AfterFunc(legTimeout, func() { session.Close() })
	err := run()
	if !watchdog.Stop() {
		return fmt.Errorf("no completion within %v: %v", legTimeout, err)
	}
	return err
}

func (in *bulkInstance) betweenSlices() error { return nil }

func (in *bulkInstance) counters(c map[string]float64) {
	c["gridftp.leg_allocs"] += float64(in.legAllocs)
	c["gridftp.legs_traced"] += float64(in.legCount)
	c["gridftp.leg_retries"] += float64(in.retries)
	addCacheCounters(c, in.ds.pipeline)
}

func (in *bulkInstance) digest() uint64 { return in.sum }

func (in *bulkInstance) close() { in.client.Close() }
