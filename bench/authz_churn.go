package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cas"
	"repro/pkg/gsi"
)

// authzChurn is the trust plane: reads beside writes, no transport at
// all. The op is one AuthorizationPipeline.Authorize for a pre-verified
// peer; every writeEvery-th slot of the schedule is a trust-plane write
// instead (journaled gridmap and policy mutations, a VO membership
// change applied to the replica as a signed delta). Each write bumps a
// generation and strands every cached decision, so the hit/miss
// sequence is fixed by the seed. pkg/gsi's pipeline, internal/authz,
// cas and wal do all the work; gss, record and gsitransport none.
type authzChurn struct {
	peers []gsi.Peer
	deny  []bool // the oracle, known by construction
	seed  int64
}

// Subject kinds by index: one in ten is a non-member the policy must
// deny, two in ten carry a CAS assertion, the rest arrive bare and are
// decided through the replica.
func subjectKind(k int) (outsider, carrier bool) {
	return k%10 == 0, k%10 == 1 || k%10 == 2
}

func (a *authzChurn) prepare(w *world, rng *rand.Rand) error {
	a.seed = rng.Int63()
	a.peers = make([]gsi.Peer, w.sc.subjects)
	a.deny = make([]bool, w.sc.subjects)
	for k := range a.peers {
		outsider, carrier := subjectKind(k)
		var cred *gsi.Credential
		var err error
		if outsider {
			cred, err = w.ca.NewEntity(outsiderDN(k/10), credLifetime)
		} else {
			cred, err = w.mintMember(k, carrier)
		}
		if err != nil {
			return err
		}
		// The peer as a transport hands it over after the handshake: chain
		// validated, ChainInfo attached.
		info, err := w.env.Trust().Verify(cred.Chain, gsi.VerifyOptions{})
		if err != nil {
			return err
		}
		a.peers[k] = gsi.Peer{Identity: info.Identity, Subject: info.Subject, Chain: cred.Chain, Info: info}
		a.deny[k] = outsider
	}
	return nil
}

func (a *authzChurn) finish() {}

// The write cycle. Each mutation is undone three writes later, so the
// trust state a repetition ends with is the one it started with.
const (
	writeGridmapAdd = iota
	writePolicyAdd
	writeMemberAdd
	writeGridmapRemove
	writePolicyRemove
	writeMemberRemove
	writeKinds
)

var (
	churnDN   = gsi.MustParseName("/O=Grid/OU=Churn/CN=joiner")
	churnRule = gsi.Rule{
		ID:        "churn-rule",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{churnDN.String()},
		Resources: []string{"data:/churn/*"},
		Actions:   []string{"read"},
	}
)

type authzInstance struct {
	wl  *authzChurn
	w   *world
	ds  *dataServer
	tr  *tracer
	rng *rand.Rand
	sum uint64

	prefixHits float64 // hit ratio over the first hitPrefixCycles write cycles
	seq0       uint64  // journal position at open
	bytes0     int64
	deltaBytes int
	deltas     int
	// forge, when set by the determinism test, rewrites a decision before
	// it meets the oracle.
	forge func(i int, d *gsi.AuthzDecision)
}

func (a *authzChurn) open(w *world, ds *dataServer, tr *tracer) (instance, error) {
	js := ds.pipeline.DurableState().JournalStats()
	return &authzInstance{
		wl: a, w: w, ds: ds, tr: tr,
		rng:    rand.New(rand.NewSource(a.seed)),
		seq0:   js.LastSeq,
		bytes0: js.BytesSinceSnapshot,
	}, nil
}

// hitPrefixCycles is how many write cycles of the schedule the reported
// cache hit ratio covers. The run is cut by the clock, so its total hit
// count depends on how far it got; the ratio over a fixed prefix of the
// seeded schedule does not, and repeats exactly.
const hitPrefixCycles = 10

func (in *authzInstance) step(i int) error {
	sc := in.w.sc
	if i == hitPrefixCycles*sc.writeEvery {
		st := in.ds.pipeline.CacheStats()
		in.prefixHits = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	if i%sc.writeEvery == sc.writeEvery-1 {
		kind := i / sc.writeEvery % writeKinds
		in.sum = mix(in.sum, 1<<32|uint64(kind))
		op := in.tr.begin("op")
		sp := in.tr.begin("authz.write")
		err := in.write(kind)
		in.tr.end(sp)
		in.tr.end(op)
		if err != nil {
			return fmt.Errorf("op %d: write %d: %w", i, kind, err)
		}
		return nil
	}
	var k int
	if in.rng.Intn(10) < 3 {
		k = in.rng.Intn(sc.hotSet)
	} else {
		k = in.rng.Intn(len(in.wl.peers))
	}
	in.sum = mix(in.sum, uint64(k))
	op := in.tr.begin("op")
	sp := in.tr.begin("authz.authorize")
	d, err := in.ds.pipeline.Authorize(context.Background(), in.wl.peers[k], exchangeResource, "echo")
	in.tr.end(sp)
	in.tr.end(op)
	if err != nil {
		return fmt.Errorf("op %d: subject %d: %w", i, k, err)
	}
	if in.forge != nil {
		in.forge(i, &d)
	}
	switch deny := in.wl.deny[k]; {
	case deny && d.Decision == gsi.Permit:
		return &failOpen{fmt.Sprintf("op %d: non-member %s permitted (%s)", i, d.Identity, d.Reason)}
	case !deny && d.Decision != gsi.Permit:
		return fmt.Errorf("op %d: member %s denied (%s)", i, d.Identity, d.Reason)
	}
	return nil
}

func (in *authzInstance) write(kind int) error {
	st := in.ds.pipeline.DurableState()
	switch kind {
	case writeGridmapAdd:
		return st.GridMap().AddChecked(churnDN, "joiner")
	case writeGridmapRemove:
		return st.GridMap().RemoveChecked(churnDN)
	case writePolicyAdd:
		return st.Policy().AddChecked(churnRule)
	case writePolicyRemove:
		_, err := st.Policy().RemoveChecked(churnRule.ID)
		return err
	case writeMemberAdd, writeMemberRemove:
		// The publisher's roll changes, and the replica follows by signed
		// delta exactly as the syncer would carry it: export, encode,
		// decode, verify, apply.
		var err error
		if kind == writeMemberAdd {
			err = in.w.vo.AddMemberChecked(churnDN, voGroup)
		} else {
			err = in.w.vo.RemoveMemberChecked(churnDN)
		}
		if err != nil {
			return err
		}
		rep := in.ds.pipeline.Replica()
		delta, err := in.w.vo.ExportDelta(rep.Version())
		if err != nil {
			return err
		}
		enc := delta.Encode()
		in.deltaBytes += len(enc)
		in.deltas++
		decoded, err := cas.DecodeDelta(enc)
		if err != nil {
			return err
		}
		return rep.ApplyDelta(decoded)
	}
	return fmt.Errorf("unknown write kind %d", kind)
}

func (in *authzInstance) betweenSlices() error { return nil }

func (in *authzInstance) counters(c map[string]float64) {
	js := in.ds.pipeline.DurableState().JournalStats()
	c["wal.records"] += float64(js.LastSeq - in.seq0)
	c["wal.bytes"] += float64(js.BytesSinceSnapshot - in.bytes0)
	c["cas.delta_bytes_total"] += float64(in.deltaBytes)
	c["cas.deltas"] += float64(in.deltas)
	addCacheCounters(c, in.ds.pipeline)
	if in.prefixHits > 0 {
		c["authz.prefix_hit_ratio"] += in.prefixHits
	}
}

func (in *authzInstance) digest() uint64 { return in.sum }

func (in *authzInstance) close() {
	// A repetition cut off mid-cycle leaves the joiner enrolled; the next
	// repetition's first member-add must not find it there.
	in.w.vo.RemoveMemberChecked(churnDN)
}
