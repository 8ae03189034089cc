package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"repro/pkg/gsi"
)

// pooledRPC is the warm path and the sentinel for anything added per
// exchange: one user, a session pool, a 1 KiB echo through
// Client.Exchange. record, wire, gsitransport, the pool checkout and
// the decision-cache hit are the whole op; handshake, chain
// verification, GRAM and XML signing are bypassed, so a cold-path
// optimisation must show no change here.
type pooledRPC struct {
	cred     *gsi.Credential
	payloads [][]byte
}

const echoVariants = 16

func (p *pooledRPC) prepare(w *world, rng *rand.Rand) error {
	user, err := w.mintMember(0, false)
	if err != nil {
		return err
	}
	// A depth-1 proxy, as grid-proxy-init leaves it: the member arrives
	// bare, so the VO half of its decision comes from the replica.
	if p.cred, err = gsi.NewProxy(user, gsi.ProxyOptions{}); err != nil {
		return err
	}
	p.payloads = make([][]byte, echoVariants)
	for i := range p.payloads {
		p.payloads[i] = make([]byte, w.sc.echoBytes)
		rng.Read(p.payloads[i])
	}
	return nil
}

func (p *pooledRPC) finish() {}

type pooledInstance struct {
	wl     *pooledRPC
	ds     *dataServer
	tr     *tracer
	client *gsi.Client
	sum    uint64
	// corrupt, when set by the determinism test, damages the reply before
	// it is checked.
	corrupt func(i int, reply []byte)
}

func (p *pooledRPC) open(w *world, ds *dataServer, tr *tracer) (instance, error) {
	cenv, err := gsi.NewEnvironment(gsi.WithRoots(w.ca.Certificate()))
	if err != nil {
		return nil, err
	}
	opts := []gsi.Option{gsi.WithSessionPool(nil)}
	if ds.registry != nil {
		opts = append(opts, gsi.WithMetrics(ds.registry))
	}
	client, err := cenv.NewClient(p.cred, opts...)
	if err != nil {
		return nil, err
	}
	return &pooledInstance{wl: p, ds: ds, tr: tr, client: client}, nil
}

func (in *pooledInstance) step(i int) error {
	v := i % echoVariants
	in.sum = mix(in.sum, uint64(v))
	payload := in.wl.payloads[v]
	op := in.tr.begin("op")
	sp := in.tr.begin("gsi.exchange")
	reply, err := in.client.Exchange(context.Background(), in.ds.addr, "echo", payload)
	in.tr.end(sp)
	if err == nil {
		if in.corrupt != nil {
			in.corrupt(i, reply)
		}
		if !bytes.Equal(reply, payload) {
			err = fmt.Errorf("op %d: echo of %d bytes came back different", i, len(payload))
		}
	}
	in.tr.end(op)
	return err
}

func (in *pooledInstance) betweenSlices() error { return nil }

func (in *pooledInstance) counters(c map[string]float64) {
	st := in.client.Pool().Stats()
	c["pool.hits"] += float64(st.Hits)
	c["pool.dials"] += float64(st.Dials)
	c["pool.evictions"] += float64(st.Evictions)
	addCacheCounters(c, in.ds.pipeline)
}

func (in *pooledInstance) digest() uint64 { return in.sum }

func (in *pooledInstance) close() { in.client.Pool().Close() }

// mix folds one op descriptor into an op-sequence digest (FNV-1a over
// the descriptor's eight bytes).
func mix(sum, v uint64) uint64 {
	if sum == 0 {
		sum = 14695981039346656037
	}
	for b := 0; b < 8; b++ {
		sum = (sum ^ (v >> (8 * b) & 0xff)) * 1099511628211
	}
	return sum
}

func addCacheCounters(c map[string]float64, p *gsi.AuthorizationPipeline) {
	st := p.CacheStats()
	c["authz.cache_hits"] += float64(st.Hits)
	c["authz.cache_misses"] += float64(st.Misses)
}
