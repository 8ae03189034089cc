package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/pkg/gsi"
)

// scale sizes the generated world. defaultScale is the benchmark; the
// determinism test runs the same code at testScale.
type scale struct {
	voMembers  int // members of the community the replica mirrors
	gridmap    int // grid-mapfile entries in the durable state
	fillers    int // non-matching local rules ahead of the matching one
	walTail    int // journal records past the snapshot, replayed at open
	users      int // short_jobs: distinct users
	subjects   int // authz_churn: distinct pre-verified peers
	hotSet     int // authz_churn: subjects drawn 30% of the time
	writeEvery int // authz_churn: every n-th slot is a trust-plane write
	stageBytes int // short_jobs: stage-in payload
	echoBytes  int // pooled_rpc: echo payload
	bulkBytes  int // bulk_transfer: bytes per leg
}

var defaultScale = scale{
	voMembers:  100_000,
	gridmap:    20_000,
	fillers:    64,
	walTail:    256,
	users:      1_000,
	subjects:   10_000,
	hotSet:     256,
	writeEvery: 4_000,
	stageBytes: 256 << 10,
	echoBytes:  1 << 10,
	bulkBytes:  16 << 20,
}

// Every decision the data server takes is about this resource: the
// facade authorizes a GT2 exchange or stream open as action=<op> on it.
const exchangeResource = "ogsa:gsi.exchange"

const (
	voGroup      = "researchers"
	credLifetime = 12 * time.Hour
)

func memberDN(i int) gsi.Name {
	return gsi.MustParseName(fmt.Sprintf("/O=Grid/OU=BenchVO/CN=user %06d", i))
}

func memberAccount(i int) string { return fmt.Sprintf("u%06d", i) }

// outsiderDN names an identity with a certificate from the trusted CA
// and a grid-mapfile entry, but no VO membership: only policy stands
// between it and a permit, so it is the fail-open canary.
func outsiderDN(i int) gsi.Name {
	return gsi.MustParseName(fmt.Sprintf("/O=Grid/OU=Outside/CN=visitor %06d", i))
}

// world is everything generated before timing starts: the benchmark's
// own CA and the credentials it mints, the community server with its
// membership roll behind a bundle feed, and the pristine durable
// directory every repetition's server restarts from.
type world struct {
	sc    scale
	dir   string // scratch root, removed by close
	trace bool

	ca       *gsi.CA
	env      *gsi.Environment // the clients' environment
	hostCred *gsi.Credential  // the data server
	vo       *gsi.CASServer
	pubEP    gsi.Endpoint
	pristine string
	outsider *gsi.Credential

	dirs int // durable directory copies handed out
}

func newWorld(sc scale, scratch string, trace bool) (w *world, err error) {
	w = &world{sc: sc, dir: scratch, trace: trace}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if err = os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	if w.ca, err = gsi.NewCA("/O=Grid/CN=Bench CA", 24*time.Hour); err != nil {
		return nil, err
	}
	if w.env, err = gsi.NewEnvironment(gsi.WithRoots(w.ca.Certificate())); err != nil {
		return nil, err
	}
	if w.hostCred, err = w.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host data.bench"), credLifetime); err != nil {
		return nil, err
	}
	if w.outsider, err = w.ca.NewEntity(outsiderDN(0), credLifetime); err != nil {
		return nil, err
	}
	if err = w.buildVO(); err != nil {
		return nil, err
	}
	if err = w.buildPristine(); err != nil {
		return nil, err
	}
	return w, nil
}

// buildVO enrolls the community and serves its signed bundle feed over
// GT3 for the data server's replica to pull.
func (w *world) buildVO() error {
	voCred, err := w.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=BenchVO CAS"), credLifetime)
	if err != nil {
		return err
	}
	w.vo = gsi.NewCASServer(voCred)
	for i := 0; i < 7; i++ {
		w.vo.AddPolicy(gsi.Rule{
			ID:        fmt.Sprintf("vo-project-%d", i),
			Effect:    gsi.EffectPermit,
			Groups:    []string{fmt.Sprintf("project-%d", i)},
			Resources: []string{fmt.Sprintf("data:/project-%d/*", i)},
			Actions:   []string{"read", "write"},
		})
	}
	w.vo.AddPolicy(gsi.Rule{
		ID:        "vo-exchange",
		Effect:    gsi.EffectPermit,
		Groups:    []string{voGroup},
		Resources: []string{exchangeResource},
		Actions:   []string{"*"},
	})
	for i := 0; i < w.sc.voMembers; i++ {
		w.vo.AddMember(memberDN(i), voGroup)
	}

	pubCred, err := w.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host cas.bench"), credLifetime)
	if err != nil {
		return err
	}
	readers := gsi.NewPolicy(gsi.Rule{
		ID:        "bundle-readers",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{w.hostCred.Identity().String()},
		Resources: []string{"ogsa:gsi.__cas.sync"},
		Actions:   []string{"*"},
	})
	pub, err := w.env.NewServer(pubCred,
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithCASPublisher(w.vo),
		gsi.WithLocalPolicy(readers))
	if err != nil {
		return err
	}
	w.pubEP, err = pub.Serve(context.Background(), "127.0.0.1:0", echoHandler)
	return err
}

// localRules is the data server's own policy: fillers that do not match
// ahead of the one rule that does, so a cold decision pays a realistic
// scan.
func localRules(fillers int) []gsi.Rule {
	rules := make([]gsi.Rule, 0, fillers+1)
	for i := 0; i < fillers; i++ {
		r := gsi.Rule{
			ID:        fmt.Sprintf("site-%02d", i),
			Effect:    gsi.EffectPermit,
			Resources: []string{fmt.Sprintf("data:/site-%02d/*", i)},
			Actions:   []string{"read"},
		}
		if i%2 == 0 {
			r.Subjects = []string{fmt.Sprintf("/O=Grid/OU=Site/CN=operator %02d", i)}
		} else {
			r.Groups = []string{fmt.Sprintf("site-%02d", i)}
		}
		rules = append(rules, r)
	}
	return append(rules, gsi.Rule{
		ID:        "local-exchange",
		Effect:    gsi.EffectPermit,
		Groups:    []string{voGroup},
		Resources: []string{exchangeResource},
		Actions:   []string{"*"},
	})
}

// buildPristine writes the durable trust state a restarted server
// replays: the mapfile and rule set folded into a snapshot, then a tail
// of journaled point mutations past it.
func (w *world) buildPristine() error {
	w.pristine = filepath.Join(w.dir, "pristine")
	ds, err := gsi.OpenDurableState(w.pristine)
	if err != nil {
		return err
	}
	outsiders := max(w.sc.subjects/10, 1)
	gm := gsi.NewGridMap()
	for i := 0; i < w.sc.gridmap-outsiders; i++ {
		gm.Add(memberDN(i), memberAccount(i))
	}
	for i := 0; i < outsiders; i++ {
		gm.Add(outsiderDN(i), fmt.Sprintf("v%06d", i))
	}
	if err := ds.GridMap().Replace(gm); err != nil {
		return err
	}
	if err := ds.Policy().AddChecked(localRules(w.sc.fillers)...); err != nil {
		return err
	}
	if err := ds.Compact(); err != nil {
		return err
	}
	for i := 0; i < w.sc.walTail/2; i++ {
		dn := gsi.MustParseName(fmt.Sprintf("/O=Grid/OU=Tail/CN=transient %04d", i))
		if err := ds.GridMap().AddChecked(dn, "transient"); err != nil {
			return err
		}
		if err := ds.GridMap().RemoveChecked(dn); err != nil {
			return err
		}
	}
	return ds.Close()
}

// freshDurableDir hands a repetition its own copy of the pristine
// state, so every restart replays exactly the same bytes.
func (w *world) freshDurableDir() (string, error) {
	w.dirs++
	dst := filepath.Join(w.dir, fmt.Sprintf("state-%d", w.dirs))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(w.pristine)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(w.pristine, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return "", err
		}
	}
	return dst, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (w *world) close() {
	if w.pubEP != nil {
		w.pubEP.Close()
	}
	os.RemoveAll(w.dir)
}

// mintMember issues member i's entity credential; with carrier set it
// also fetches the member's CAS assertion and embeds it, which is the
// credential a VO member presents to resources (Figure 2 step 2).
func (w *world) mintMember(i int, carrier bool) (*gsi.Credential, error) {
	cred, err := w.ca.NewEntity(memberDN(i), credLifetime)
	if err != nil || !carrier {
		return cred, err
	}
	c, err := w.env.NewClient(cred)
	if err != nil {
		return nil, err
	}
	a, err := c.RequestAssertion(context.Background(), w.vo)
	if err != nil {
		return nil, err
	}
	return c.EmbedAssertion(a)
}

// --- the data server: what setup_s restarts ------------------------------

// dataServer is one repetition's server world: fresh environment,
// durable trust state replayed from disk, authorization pipeline with a
// replica of the VO bundle, serving GT2 on loopback.
type dataServer struct {
	env      *gsi.Environment
	server   *gsi.Server
	ep       gsi.Endpoint
	addr     string
	pipeline *gsi.AuthorizationPipeline
	registry *gsi.MetricsRegistry // traced runs only
}

func echoHandler(_ context.Context, _ gsi.Peer, op string, body []byte) ([]byte, error) {
	if op != "echo" {
		return nil, fmt.Errorf("bench: data server has no op %q", op)
	}
	return body, nil
}

// startDataServer is the restart an operator pays, up to the replica
// holding its first full bundle. tr attributes the parts.
func (w *world) startDataServer(durableDir string, tr *tracer) (ds *dataServer, err error) {
	ds = &dataServer{}
	defer func() {
		if err != nil {
			ds.close()
		}
	}()
	sp := tr.begin("setup.replay")
	if ds.env, err = gsi.NewEnvironment(gsi.WithRoots(w.ca.Certificate())); err != nil {
		return nil, err
	}
	opts := []gsi.Option{
		gsi.WithDurableState(durableDir),
		gsi.WithoutDecisionAudit(),
		gsi.WithTrustedVO(w.vo.Certificate()),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{
			Endpoints: []string{w.pubEP.Addr()},
			Cert:      w.vo.Certificate(),
			Interval:  time.Hour, // only the first pull; later bundles arrive through the workload
		}),
		gsi.WithStreamHandler(stageInHandler),
	}
	if w.trace {
		ds.registry = gsi.NewMetricsRegistry()
		opts = append(opts, gsi.WithMetrics(ds.registry))
	}
	if ds.server, err = ds.env.NewServer(w.hostCred, opts...); err != nil {
		return nil, err
	}
	ds.pipeline = ds.server.AuthorizationPipeline()
	tr.end(sp)

	sp = tr.begin("setup.serve")
	if ds.ep, err = ds.server.Serve(context.Background(), "127.0.0.1:0", echoHandler); err != nil {
		return nil, err
	}
	ds.addr = ds.ep.Addr()
	tr.end(sp)

	sp = tr.begin("setup.first_sync")
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := ds.server.CASSyncStatus()
		if st.Version > 0 && st.Members >= w.sc.voMembers {
			break
		}
		if st.Failures > 0 {
			return nil, fmt.Errorf("bench: first bundle sync failed: %s", st.LastError)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: first bundle sync timed out: %+v", st)
		}
		time.Sleep(500 * time.Microsecond)
	}
	tr.end(sp)
	return ds, nil
}

func (ds *dataServer) close() {
	if ds.ep != nil {
		ds.ep.Close()
	}
	if ds.server != nil {
		if st := ds.server.DurableState(); st != nil {
			st.Close()
		}
	}
}

// refusesOutsider is the fail-open canary every workload runs against
// its server: an authenticated non-member must be denied by policy.
func (w *world) refusesOutsider(ds *dataServer) error {
	c, err := ds.env.NewClient(w.outsider)
	if err != nil {
		return err
	}
	out, err := c.Exchange(context.Background(), ds.addr, "echo", []byte("canary"))
	switch {
	case err == nil:
		return &failOpen{fmt.Sprintf("non-member %s got %q from the data server", w.outsider.Identity(), out)}
	case !errors.Is(err, gsi.ErrUnauthorized):
		return fmt.Errorf("canary exchange failed for another reason than policy: %w", err)
	}
	return nil
}
