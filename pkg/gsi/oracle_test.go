package gsi_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/cas"
	"repro/internal/israce"
	"repro/pkg/gsi"
)

// The decision oracle: AuthorizationPipeline against a reference
// evaluator written here from the documented semantics alone — each
// rule copied out of its list, the subject's DN rendered at every
// comparison, the replica read once for membership and again for the
// member's attributes. Seeded worlds mix exact, "*" and prefix
// resources; subject, group and role matchers; rules in, before and
// after their time bounds; all three combining algorithms for local
// policy; and bare members (the VO half from the bundle replica),
// assertion carriers and non-members, each presenting a proxy so the
// leaf's subject is never the identity. Every question is asked cold,
// again as a cache hit, and of a pipeline without a cache, then once
// more while a goroutine applies member deltas to the replicas.

var (
	oracleResources = []string{"data:/a/x", "data:/a/y", "data:/b/y", "data:/c", "data:/", "ftp:/z"}
	oraclePatterns  = []string{"data:/a/x", "data:/a/*", "data:/*", "data:/b/y", "data:/b/*", "data:/c", "data:/a/x", "data:/c"}
	oracleActions   = []string{"read", "write", "delete"}
	oracleGroups    = []string{"g0", "g1", "g2", "g3"}
	oracleRoles     = []string{"r0", "r1", "r2"}
)

type oracleSubject struct {
	kind      string // "bare", "carrier" or "outsider"
	id        gsi.Name
	leaf      gsi.Name
	chain     []*gsi.Certificate
	assertion *gsi.CASAssertion // carriers only
}

// refMatches is a rule's documented applicability, subject rendered
// afresh for each comparison.
func refMatches(r gsi.Rule, id gsi.Name, groups, roles []string, resource, action string, now time.Time) bool {
	res := len(r.Resources) == 0
	for _, p := range r.Resources {
		res = res || p == "*" || p == resource ||
			strings.HasSuffix(p, "*") && strings.HasPrefix(resource, strings.TrimSuffix(p, "*"))
	}
	act := len(r.Actions) == 0
	for _, a := range r.Actions {
		act = act || a == "*" || a == action
	}
	switch {
	case !res || !act:
		return false
	case !r.NotBefore.IsZero() && now.Before(r.NotBefore), !r.NotAfter.IsZero() && now.After(r.NotAfter):
		return false
	case len(r.Subjects)+len(r.Groups)+len(r.Roles) == 0:
		return true
	}
	for _, s := range r.Subjects {
		if s == "*" || s == id.String() {
			return true
		}
	}
	for _, g := range r.Groups {
		if slices.Contains(groups, g) {
			return true
		}
	}
	for _, x := range r.Roles {
		if slices.Contains(roles, x) {
			return true
		}
	}
	return false
}

// refEvaluate combines the matching rules as documented: only a permit
// effect permits.
func refEvaluate(c authz.Combining, rules []gsi.Rule, id gsi.Name, groups, roles []string, resource, action string, now time.Time) gsi.Decision {
	sawPermit, sawDeny := false, false
	for _, r := range rules {
		if !refMatches(r, id, groups, roles, resource, action, now) {
			continue
		}
		permit := r.Effect == gsi.EffectPermit
		switch {
		case c == authz.FirstApplicable && permit, c == authz.PermitOverrides && permit:
			return gsi.Permit
		case c == authz.FirstApplicable, c == authz.DenyOverrides && !permit:
			return gsi.Deny
		}
		sawPermit, sawDeny = sawPermit || permit, sawDeny || !permit
	}
	switch {
	case sawPermit:
		return gsi.Permit
	case sawDeny:
		return gsi.Deny
	}
	return gsi.NotApplicable
}

type oracleWorld struct {
	now       time.Time
	combining authz.Combining
	local     []gsi.Rule
	voRules   []gsi.Rule // the bundle's
	accounts  map[string]string
	replica   *cas.Replica
	voName    gsi.Name
}

// decide is the reference decision for one question.
func (w *oracleWorld) decide(s *oracleSubject, resource, action string) gsi.AuthzDecision {
	d := gsi.AuthzDecision{Identity: s.id, VO: gsi.NotApplicable}
	var groups, roles []string
	voLayer, replicated := false, false
	if a := s.assertion; a != nil {
		voLayer, d.VOName, groups, roles = true, a.VO, a.Groups, a.Roles
		d.VO = refEvaluate(authz.DenyOverrides, a.Rules, s.id, groups, roles, resource, action, w.now)
	} else if _, _, member := w.replica.Lookup(s.id); member {
		groups, roles, _ = w.replica.Lookup(s.id)
		voLayer, replicated, d.VOName = true, true, w.voName
		d.VO = refEvaluate(authz.DenyOverrides, w.voRules, s.id, groups, roles, resource, action, w.now)
	}
	d.Local = refEvaluate(w.combining, w.local, s.id, groups, roles, resource, action, w.now)
	switch {
	case voLayer && (d.Local != gsi.Permit || d.VO != gsi.Permit):
		d.Decision, d.Reason = gsi.Deny, fmt.Sprintf("intersection of local (%s) and VO (%s) policy", d.Local, d.VO)
	case voLayer && replicated:
		d.Decision, d.Reason = gsi.Permit, "permitted by local ∩ replicated VO policy"
	case voLayer:
		d.Decision, d.Reason = gsi.Permit, "permitted by local ∩ VO policy"
	case d.Local != gsi.Permit:
		d.Decision, d.Reason = gsi.Deny, "no CAS assertion and local policy does not permit"
	default:
		d.Decision, d.Reason = gsi.Permit, "permitted by local policy alone"
	}
	if d.Decision == gsi.Permit {
		if acct, ok := w.accounts[s.id.String()]; ok {
			d.LocalAccount = acct
		} else {
			d.Decision, d.Reason = gsi.Deny, fmt.Sprintf("no gridmap entry for %q", s.id.String())
		}
	}
	return d
}

// oracleRule draws one rule: a few resource patterns and actions, a
// subject, group or role matcher (or none), sometimes time bounds.
func oracleRule(rng *rand.Rand, id string, subjects []*oracleSubject, now time.Time) gsi.Rule {
	pick := func(from []string, max int) []string {
		out := make([]string, 1+rng.Intn(max))
		for i := range out {
			out[i] = from[rng.Intn(len(from))]
		}
		return out
	}
	r := gsi.Rule{ID: id, Effect: gsi.EffectPermit, Resources: pick(oraclePatterns, 2), Actions: pick(oracleActions, 2)}
	if rng.Intn(8) == 0 {
		r.Resources = []string{"*"}
	}
	if rng.Intn(8) == 0 {
		r.Actions = []string{"*"}
	}
	if rng.Intn(4) == 0 {
		r.Effect = gsi.EffectDeny
	}
	switch rng.Intn(6) {
	case 0: // applies to everyone
	case 1, 5:
		s, o := subjects[rng.Intn(len(subjects))], subjects[rng.Intn(len(subjects))]
		// A leaf's DN names nobody: the leaf is never the identity.
		r.Subjects = [][]string{{s.id.String()}, {s.leaf.String()}, {o.leaf.String(), s.id.String()}, {"*"}, {s.leaf.String(), o.id.String()}}[rng.Intn(5)]
	case 2, 3:
		r.Groups = pick(oracleGroups, 2)
	case 4:
		r.Roles = pick(oracleRoles, 1)
	}
	switch rng.Intn(6) {
	case 0: // in bounds
		r.NotBefore, r.NotAfter = now.Add(-time.Hour), now.Add(time.Hour)
	case 1: // expired
		r.NotAfter = now.Add(-time.Minute)
	case 2: // not yet
		r.NotBefore = now.Add(time.Minute)
	}
	return r
}

func TestDecisionOracle(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { decisionOracle(t, seed, seen) })
	}
	// The worlds are not degenerate: every outcome occurs.
	for _, want := range []string{
		"permitted by local policy alone", "permitted by local ∩ VO policy",
		"permitted by local ∩ replicated VO policy", "no gridmap entry for",
		"intersection of local", "no CAS assertion and local policy does not permit",
		"local permit", "local deny", "local not-applicable", "VO permit", "VO deny", "VO not-applicable",
	} {
		if !seen[want] {
			t.Errorf("no decision reads %q; saw %v", want, seen)
		}
	}
}

// decisionOracle runs one seeded world, noting in seen the outcomes met.
func decisionOracle(t *testing.T, seed int64, seen map[string]bool) {
	rng := rand.New(rand.NewSource(seed))
	now := time.Now().Truncate(time.Second)
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 96*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()), gsi.WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	voCred, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Oracle VO CAS"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vo := gsi.NewCASServer(voCred)
	vo.AssertionLifetime = 48 * time.Hour

	var subjects []*oracleSubject
	creds := map[*oracleSubject]*gsi.Credential{}
	for i, kind := range []string{"bare", "carrier", "outsider", "bare", "carrier", "outsider", "bare", "carrier", "outsider", "bare", "carrier", "outsider"} {
		cred, err := authority.NewEntity(gsi.MustParseName(fmt.Sprintf("/O=Grid/OU=Oracle/CN=%s %02d", kind, i)), 72*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		s := &oracleSubject{kind: kind, id: cred.Identity()}
		if kind != "outsider" {
			vo.AddMember(s.id, oracleGroups[rng.Intn(len(oracleGroups))], oracleGroups[rng.Intn(len(oracleGroups))])
			if rng.Intn(2) == 0 {
				vo.AssignRole(s.id, oracleRoles[rng.Intn(len(oracleRoles))])
			}
		}
		subjects = append(subjects, s)
		creds[s] = cred
	}
	for i := 0; i < 8; i++ {
		vo.AddPolicy(oracleRule(rng, fmt.Sprintf("vo-%d", i), subjects, now))
	}
	// Every subject presents a proxy: a carrier the restricted one its
	// assertion rides in, the rest a plain one.
	for _, s := range subjects {
		cred := creds[s]
		if s.kind == "carrier" {
			cl, err := env.NewClient(cred)
			if err != nil {
				t.Fatal(err)
			}
			if s.assertion, err = cl.RequestAssertion(context.Background(), vo); err != nil {
				t.Fatal(err)
			}
			cred, err = cl.EmbedAssertion(s.assertion)
		} else {
			cred, err = gsi.NewProxy(cred, gsi.ProxyOptions{Lifetime: 12 * time.Hour})
		}
		if err != nil {
			t.Fatal(err)
		}
		s.chain, s.leaf = cred.Chain, cred.Leaf().Subject
	}
	bundle, err := vo.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}

	world := &oracleWorld{now: now, voRules: bundle.Rules, accounts: map[string]string{}, voName: vo.VO()}
	gm := gsi.NewGridMap()
	for i, s := range subjects {
		if i%4 != 3 {
			acct := fmt.Sprintf("acct%02d", i)
			gm.Add(s.id, acct)
			world.accounts[s.id.String()] = acct
		}
	}
	for i := 0; i < 16; i++ {
		world.local = append(world.local, oracleRule(rng, fmt.Sprintf("local-%d", i), subjects, now))
	}
	type question struct {
		s                *oracleSubject
		resource, action string
	}
	var questions []question
	for _, s := range subjects {
		for _, res := range oracleResources {
			for _, act := range oracleActions {
				questions = append(questions, question{s, res, act})
			}
		}
	}

	for _, c := range []authz.Combining{authz.DenyOverrides, authz.PermitOverrides, authz.FirstApplicable} {
		world.combining = c
		pipeline := func(opts ...gsi.Option) *gsi.AuthorizationPipeline {
			pl, err := env.NewAuthorizationPipeline(append([]gsi.Option{
				gsi.WithLocalPolicy(authz.NewPolicy(c).Add(world.local...)),
				gsi.WithGridMap(gm),
				gsi.WithCASUpstream(gsi.CASUpstreamConfig{Endpoints: []string{"unused:0"}, Cert: vo.Certificate()}),
			}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.Replica().Apply(bundle); err != nil {
				t.Fatal(err)
			}
			return pl
		}
		cached, uncached := pipeline(), pipeline(gsi.WithDecisionCache(0))
		world.replica = cached.Replica()
		ask := func(pl *gsi.AuthorizationPipeline, q question, how string, wantCached bool, checkCached bool) {
			t.Helper()
			got, err := pl.Authorize(context.Background(), gsi.Peer{Chain: q.s.chain}, q.resource, q.action)
			if err != nil {
				t.Fatalf("%s: %s %s %s: %v", how, q.s.id, q.action, q.resource, err)
			}
			want := world.decide(q.s, q.resource, q.action)
			seen[strings.SplitN(strings.SplitN(want.Reason, " (", 2)[0], " \"", 2)[0]] = true
			seen["local "+want.Local.String()], seen["VO "+want.VO.String()] = true, true
			if got.Decision != want.Decision || got.Local != want.Local || got.VO != want.VO ||
				!got.VOName.Equal(want.VOName) || got.Reason != want.Reason || got.LocalAccount != want.LocalAccount ||
				!got.Identity.Equal(want.Identity) || checkCached && got.Cached != wantCached {
				t.Fatalf("combining %d, %s %s (%s): %s %s\n got %+v\nwant %+v", c, how, q.s.id, q.s.kind, q.action, q.resource, got, want)
			}
		}
		for _, q := range questions {
			ask(cached, q, "cold", false, true)
			ask(cached, q, "cache hit", true, true)
			ask(uncached, q, "uncached", false, true)
		}

		// Again while member deltas land on both replicas: every delta
		// bumps the replica generation, stranding cached decisions, and
		// takes the replica's write lock between decisions.
		churn := gsi.MustParseName("/O=Grid/OU=Churn/CN=joiner")
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if i%2 == 0 {
					err = vo.AddMemberChecked(churn, "g0")
				} else {
					err = vo.RemoveMemberChecked(churn)
				}
				for _, pl := range []*gsi.AuthorizationPipeline{cached, uncached} {
					if err != nil {
						break
					}
					var delta *cas.Delta
					if delta, err = vo.ExportDelta(pl.Replica().Version()); err == nil {
						err = pl.Replica().ApplyDelta(delta)
					}
				}
				if err != nil {
					t.Errorf("churn: %v", err)
					return
				}
			}
		}()
		rounds := 3
		if israce.Enabled {
			rounds = 1
		}
		for r := 0; r < rounds; r++ {
			for _, q := range questions {
				ask(cached, q, "under churn", false, false)
				ask(uncached, q, "uncached under churn", false, true)
			}
		}
		close(stop)
		wg.Wait()
		vo.RemoveMemberChecked(churn)
	}
}
