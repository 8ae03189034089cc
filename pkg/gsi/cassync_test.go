// End-to-end CAS bundle replication: a community server publishes its
// signed policy bundle on gsi.__cas.sync, a resource server pulls it
// through the control plane, and VO members arriving WITHOUT an
// assertion are decided from the replicated bundle. The failover half
// kills the primary publisher and proves the standby keeps the replica
// fresh — including a membership update that happened after the
// primary died — while decisions stay fail-closed throughout.
package gsi_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

// casSyncBed is the federation fixture: one VO, two publisher
// endpoints (primary + standby) serving the same community server, and
// one resource server pulling bundles.
type casSyncBed struct {
	bed        *authzBed
	vo         *gsi.CASServer
	primary    gsi.Endpoint
	standby    gsi.Endpoint
	primarySrv *gsi.Server
	standbySrv *gsi.Server
	resource   *gsi.Server
	rsEP       gsi.Endpoint
}

func newCASSyncBed(t *testing.T, resourceOpts ...gsi.Option) *casSyncBed {
	t.Helper()
	bed := newAuthzBed(t)
	ctx := context.Background()

	// The community server's own policy for the scale resource.
	bed.vo.AddPolicy(gsi.Rule{
		ID:        "vo-data",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	})

	// Which resource servers may read the membership roll is itself
	// policy: the publishers permit only our resource server's identity.
	rsCred, err := bed.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=resource node"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pubPolicy := gsi.NewPolicy(gsi.Rule{
		ID:        "bundle-readers",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{rsCred.Identity().String()},
		Resources: []string{"ogsa:gsi.__cas.sync"},
		Actions:   []string{"*"},
	})
	echo := func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	}
	serveBundle := func(name string) (*gsi.Server, gsi.Endpoint) {
		cred, err := bed.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN="+name), 72*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := bed.env.NewServer(cred,
			gsi.WithTransport(gsi.TransportGT3()),
			gsi.WithCASPublisher(bed.vo),
			gsi.WithLocalPolicy(pubPolicy))
		if err != nil {
			t.Fatal(err)
		}
		ep, err := srv.Serve(ctx, "127.0.0.1:0", echo)
		if err != nil {
			t.Fatal(err)
		}
		return srv, ep
	}
	primarySrv, primary := serveBundle("cas primary")
	standbySrv, standby := serveBundle("cas standby")
	t.Cleanup(func() { primary.Close(); standby.Close() })

	opts := append([]gsi.Option{
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{
			Endpoints: []string{primary.Addr(), standby.Addr()},
			Cert:      bed.vo.Certificate(),
			Interval:  25 * time.Millisecond,
		}),
		gsi.WithLocalPolicy(bed.local),
		gsi.WithGridMap(bed.gridmap),
	}, resourceOpts...)
	resource, err := bed.env.NewServer(rsCred, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rsEP, err := resource.Serve(ctx, "127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsEP.Close() })
	return &casSyncBed{
		bed: bed, vo: bed.vo,
		primary: primary, standby: standby,
		primarySrv: primarySrv, standbySrv: standbySrv,
		resource: resource, rsEP: rsEP,
	}
}

// waitSync polls until cond accepts the resource server's sync status.
func (c *casSyncBed) waitSync(t *testing.T, what string, cond func(gsi.CASSyncStatus) bool) gsi.CASSyncStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.resource.CASSyncStatus()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; status %+v", what, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCASSyncFailover(t *testing.T) {
	c := newCASSyncBed(t)
	bed := c.bed
	ctx := context.Background()
	pipe := c.resource.AuthorizationPipeline()
	if pipe == nil {
		t.Fatal("resource server has no pipeline")
	}

	// The local side of the intersection for the replicated VO layer.
	bed.local.Add(gsi.Rule{
		ID:        "local-data",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	})

	first := c.waitSync(t, "first bundle", func(st gsi.CASSyncStatus) bool { return st.Version >= 1 })
	if !first.Configured || first.Members == 0 {
		t.Fatalf("first sync status: %+v", first)
	}
	if first.LastEndpoint != c.primary.Addr() {
		t.Fatalf("first sync came from %q, want primary %q", first.LastEndpoint, c.primary.Addr())
	}

	// Alice is a VO member arriving BARE — no assertion embedded. The
	// replica supplies the VO layer; the intersection permits.
	alice := gsi.Peer{Identity: bed.alice.Identity(), Chain: bed.alice.Chain}
	d, err := pipe.Authorize(ctx, alice, "data:/climate/x", "read")
	if err != nil || d.Decision != gsi.Permit {
		t.Fatalf("member via replica: %+v err=%v", d, err)
	}
	if d.VOName.String() != bed.vo.Certificate().Subject.String() {
		t.Fatalf("decision VO = %q", d.VOName)
	}
	// Bob is not a member: no VO layer, local policy alone says nothing
	// about him — deny.
	bob := gsi.Peer{Identity: bed.bob.Identity(), Chain: bed.bob.Chain}
	if d, err = pipe.Authorize(ctx, bob, "data:/climate/x", "read"); err != nil || d.Decision != gsi.Deny {
		t.Fatalf("non-member: %+v err=%v", d, err)
	}

	// Failover: the primary dies, then the VO admits bob. The standby
	// must deliver the new bundle.
	c.primary.Close()
	c.vo.AddMember(bed.bob.Identity(), "researchers")
	bed.gridmap.Add(bed.bob.Identity(), "bob")
	want := c.vo.Version()
	st := c.waitSync(t, "standby bundle", func(st gsi.CASSyncStatus) bool {
		return st.Version >= want && st.LastEndpoint == c.standby.Addr()
	})
	if st.Members < first.Members+1 {
		t.Fatalf("standby bundle members = %d, want > %d", st.Members, first.Members)
	}
	if d, err = pipe.Authorize(ctx, bob, "data:/climate/x", "read"); err != nil || d.Decision != gsi.Permit {
		t.Fatalf("new member after failover: %+v err=%v", d, err)
	}
	// Alice's grant survived the failover uninterrupted.
	if d, err = pipe.Authorize(ctx, alice, "data:/climate/x", "read"); err != nil || d.Decision != gsi.Permit {
		t.Fatalf("member after failover: %+v err=%v", d, err)
	}
}

// TestCASPromotionFailover is the standby-promotion scenario end to
// end: a resource server follows the VO by signed delta; the primary is
// killed mid-run with membership churn (deltas) in flight. The standby
// must keep serving deltas, a member admitted after the primary died
// must get in, and nothing may fail open: an outsider stays denied
// throughout.
func TestCASPromotionFailover(t *testing.T) {
	c := newCASSyncBed(t)
	bed := c.bed
	ctx := context.Background()
	pipe := c.resource.AuthorizationPipeline()
	if pipe == nil {
		t.Fatal("resource server has no pipeline")
	}
	bed.local.Add(gsi.Rule{
		ID:        "local-data",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	})
	malloryCred, err := bed.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=Mallory"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mallory := gsi.Peer{Identity: malloryCred.Identity(), Chain: malloryCred.Chain}
	outsiderDenied := func(when string) {
		t.Helper()
		if d, err := pipe.Authorize(ctx, mallory, "data:/climate/hot", "read"); err != nil || d.Decision != gsi.Deny {
			t.Errorf("outsider %s: %+v err=%v", when, d, err)
		}
	}

	first := c.waitSync(t, "first bundle", func(st gsi.CASSyncStatus) bool { return st.Version >= 1 })
	if first.FullSyncs == 0 {
		t.Fatalf("initial sync was not a full bundle: %+v", first)
	}
	outsiderDenied("before the churn")

	// Membership churn with the primary dying mid-stream: deltas are in
	// flight when the endpoint list fails over, and the outsider keeps
	// knocking the whole time.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			c.vo.AddMember(gsi.MustParseName(fmt.Sprintf("/O=Grid/CN=churn %02d", i)), "researchers")
			outsiderDenied("during the churn")
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	c.primary.Close()
	c.vo.AddMember(bed.bob.Identity(), "researchers")
	bed.gridmap.Add(bed.bob.Identity(), "bob")
	<-done
	want := c.vo.Version()
	st := c.waitSync(t, "standby deltas", func(st gsi.CASSyncStatus) bool {
		return st.Version >= want && st.LastEndpoint == c.standby.Addr()
	})
	if st.DeltaSyncs == 0 {
		t.Fatalf("failover caught up without a single delta: %+v", st)
	}
	if st.DeltaFallbacks != 0 {
		t.Fatalf("honest publishers' deltas were refused: %+v", st)
	}
	// (Byte savings are a scale claim — the benchmark's cas.delta_bytes
	// shows them; a fixture VO this small can't.)

	// Promotion: alice, a member from the start, and bob, admitted only
	// after the primary died, are both decided from the standby's feed.
	alice := gsi.Peer{Identity: bed.alice.Identity(), Chain: bed.alice.Chain}
	if d, err := pipe.Authorize(ctx, alice, "data:/climate/hot", "read"); err != nil || d.Decision != gsi.Permit {
		t.Fatalf("member after promotion: %+v err=%v", d, err)
	}
	bob := gsi.Peer{Identity: bed.bob.Identity(), Chain: bed.bob.Chain}
	if d, err := pipe.Authorize(ctx, bob, "data:/climate/hot", "read"); err != nil || d.Decision != gsi.Permit {
		t.Fatalf("late member after promotion: %+v err=%v", d, err)
	}
	outsiderDenied("after promotion")
}

// tamperingFeed fronts an honest sync service as a publisher that can
// be told to corrupt what it serves: the signature of the next delta
// that carries mutations, or — answering as if its log had a gap — of
// every full bundle. It logs the version each pull carried.
type tamperingFeed struct {
	inner ogsa.Service

	mu        sync.Mutex
	badDelta  bool // one shot
	badFull   bool
	requested []string
}

func (f *tamperingFeed) Invoke(call *ogsa.Call) ([]byte, error) {
	if call.Op != cas.SyncOpPull {
		return f.inner.Invoke(call)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requested = append(f.requested, string(call.Body))
	if f.badFull {
		call.Body = []byte("0")
	}
	reply, err := f.inner.Invoke(call)
	if err != nil {
		return nil, err
	}
	delta, _, err := cas.DecodeSyncReply(reply)
	if err != nil {
		return nil, err
	}
	switch {
	case delta == nil && f.badFull:
		reply[len(reply)-1] ^= 0x80
	case delta != nil && len(delta.Ops) > 0 && f.badDelta:
		f.badDelta = false
		reply[len(reply)-1] ^= 0x80
	}
	return reply, nil
}

func (f *tamperingFeed) arm(set func(*tamperingFeed)) (logged int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	set(f)
	return len(f.requested)
}

func (f *tamperingFeed) since(n int) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.requested[n:]...)
}

// TestCASPullFallback pins the client's one fallback against a
// publisher that corrupts its replies. A delta that fails to verify is
// answered by exactly one more pull from version 0 on the same
// endpoint, whose full bundle applies — the bad delta never moves the
// replica. A full bundle that fails is the endpoint's failure: no
// retry, the next endpoint serves the round.
func TestCASPullFallback(t *testing.T) {
	bed := newAuthzBed(t)
	ctx := context.Background()
	feedCred, err := bed.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=cas tamperer"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name: "tamperer", Credential: feedCred, TrustStore: bed.env.Trust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := &tamperingFeed{inner: cas.NewSyncService(bed.vo, nil)}
	container.Publish(cas.SyncHandle, feed)
	feedURL, shutdown, err := gsi.ServeHTTP(container, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	echo := func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	}
	honestCred, err := bed.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=cas honest"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := bed.env.NewServer(honestCred,
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithCASPublisher(bed.vo),
		gsi.WithLocalPolicy(gsi.NewPolicy(gsi.Rule{
			Effect: gsi.EffectPermit, Subjects: []string{"*"},
			Resources: []string{"ogsa:gsi.__cas.sync"}, Actions: []string{"*"},
		})))
	if err != nil {
		t.Fatal(err)
	}
	honestEP, err := honest.Serve(ctx, "127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer honestEP.Close()

	rsCred, err := bed.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=resource node"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	resource, err := bed.env.NewServer(rsCred,
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{
			Endpoints: []string{feedURL, honestEP.Addr()},
			Cert:      bed.vo.Certificate(),
			Interval:  20 * time.Millisecond,
		}),
		gsi.WithLocalPolicy(bed.local))
	if err != nil {
		t.Fatal(err)
	}
	rsEP, err := resource.Serve(ctx, "127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer rsEP.Close()
	c := &casSyncBed{resource: resource}
	first := c.waitSync(t, "first bundle", func(st gsi.CASSyncStatus) bool { return st.Version >= 1 })
	if first.LastEndpoint != feedURL || first.FullSyncs != 1 {
		t.Fatalf("first sync: %+v", first)
	}

	// Tampered delta: one retry from version 0, the full bundle applies.
	mark := feed.arm(func(f *tamperingFeed) { f.badDelta = true })
	bed.vo.AddMember(gsi.MustParseName("/O=Grid/CN=Joiner"), "researchers")
	want := bed.vo.Version()
	st := c.waitSync(t, "recovery from the bad delta", func(st gsi.CASSyncStatus) bool { return st.Version >= want })
	if st.DeltaFallbacks != 1 || st.FullSyncs != 2 || st.Failures != 0 || st.LastEndpoint != feedURL {
		t.Fatalf("after a tampered delta: %+v", st)
	}
	if st.Generation != first.Generation+1 {
		t.Fatalf("replica generation %d -> %d: the bad delta moved it", first.Generation, st.Generation)
	}
	// Up-to-date polls may surround the pull that met the mutation; the
	// retry is the one pull from version 0, right behind a pull from the
	// version the replica held.
	got := feed.since(mark)
	zeros, at := 0, -1
	for i, have := range got {
		if have == "0" {
			zeros++
			at = i
		}
	}
	if zeros != 1 || at == 0 || got[at-1] != fmt.Sprint(first.Version) {
		t.Fatalf("pulls around the tampered delta = %q, want version %d then exactly one 0", got, first.Version)
	}

	// Tampered full bundle: the endpoint failed; the next one serves.
	mark = feed.arm(func(f *tamperingFeed) { f.badFull = true })
	bed.vo.AddMember(gsi.MustParseName("/O=Grid/CN=Latecomer"), "researchers")
	want = bed.vo.Version()
	st = c.waitSync(t, "the next endpoint", func(st gsi.CASSyncStatus) bool { return st.Version >= want })
	if st.LastEndpoint != honestEP.Addr() || st.DeltaFallbacks != 1 || st.Failures != 0 {
		t.Fatalf("after a tampered full bundle: %+v", st)
	}
	for _, have := range feed.since(mark) {
		if have == "0" {
			t.Fatalf("a failed full bundle was retried from version 0: %q", feed.since(mark))
		}
	}
}

// TestCASAdminOps drives the gsi.__admin CAS surface (what gsictl
// cas-status / cas-sync invoke) over a real GT3 conversation.
func TestCASAdminOps(t *testing.T) {
	c := newCASSyncBed(t, gsi.WithAdmin())
	bed := c.bed
	ctx := context.Background()
	// Bob is not a VO member, so no VO layer applies and local policy
	// alone decides his admin calls (a member's admin call would need
	// the VO to permit it too — the intersection rule has no carve-out).
	bed.local.Add(gsi.Rule{
		ID:        "admin-ops",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{bed.bob.Identity().String()},
		Resources: []string{"ogsa:" + ogsa.AdminHandle},
		Actions:   []string{"*"},
	})
	bed.gridmap.Add(bed.bob.Identity(), "bob")
	c.waitSync(t, "first bundle", func(st gsi.CASSyncStatus) bool { return st.Version >= 1 })

	admin, err := bed.env.NewClient(bed.bob, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := admin.Invoke(ctx, c.rsEP.Addr(), ogsa.AdminHandle, ogsa.AdminOpCASStatus, nil)
	if err != nil {
		t.Fatalf("CASStatus: %v", err)
	}
	var status gsi.CASSyncStatus
	if err := json.Unmarshal(out, &status); err != nil {
		t.Fatalf("CASStatus is not JSON: %v\n%s", err, out)
	}
	if !status.Configured || status.Version < 1 || status.Syncs < 1 {
		t.Fatalf("CASStatus: %+v", status)
	}

	before := status.Syncs
	out, _, err = admin.Invoke(ctx, c.rsEP.Addr(), ogsa.AdminHandle, ogsa.AdminOpCASSync, nil)
	if err != nil {
		t.Fatalf("CASSync: %v", err)
	}
	var sync struct {
		OK bool `json:"ok"`
		gsi.CASSyncStatus
	}
	if err := json.Unmarshal(out, &sync); err != nil {
		t.Fatalf("CASSync is not JSON: %v\n%s", err, out)
	}
	if !sync.OK || sync.Syncs <= before {
		t.Fatalf("forced sync did not pull: %+v (before %d)", sync, before)
	}
}
