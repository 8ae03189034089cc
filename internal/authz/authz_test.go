package authz

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gridcert"
)

var (
	alice = gridcert.MustParseName("/O=Grid/CN=Alice")
	bob   = gridcert.MustParseName("/O=Grid/CN=Bob")
)

func TestRuleMatching(t *testing.T) {
	r := Rule{
		Effect:    EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	}
	cases := []struct {
		req  Request
		want bool
	}{
		{Request{Subject: alice, Resource: "data:/climate/run1", Action: "read"}, true},
		{Request{Subject: alice, Resource: "data:/climate/", Action: "read"}, true},
		{Request{Subject: alice, Resource: "data:/physics/run1", Action: "read"}, false},
		{Request{Subject: alice, Resource: "data:/climate/run1", Action: "write"}, false},
		{Request{Subject: bob, Resource: "data:/climate/run1", Action: "read"}, false},
	}
	for i, c := range cases {
		if got := r.Matches(c.req); got != c.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
}

func TestRuleWildcards(t *testing.T) {
	r := Rule{Effect: EffectPermit, Subjects: []string{"*"}, Resources: []string{"*"}, Actions: []string{"*"}}
	if !r.Matches(Request{Subject: bob, Resource: "anything", Action: "nuke"}) {
		t.Fatal("universal rule did not match")
	}
	// Empty matchers also match everything.
	empty := Rule{Effect: EffectPermit}
	if !empty.Matches(Request{Subject: alice, Resource: "x", Action: "y"}) {
		t.Fatal("empty rule did not match")
	}
}

func TestRuleGroupsAndRoles(t *testing.T) {
	r := Rule{Effect: EffectPermit, Groups: []string{"climate-vo"}, Actions: []string{"read"}}
	if !r.Matches(Request{Subject: bob, Groups: []string{"climate-vo"}, Resource: "x", Action: "read"}) {
		t.Fatal("group match failed")
	}
	if r.Matches(Request{Subject: bob, Groups: []string{"other"}, Resource: "x", Action: "read"}) {
		t.Fatal("wrong group matched")
	}
	rr := Rule{Effect: EffectPermit, Roles: []string{"admin"}}
	if !rr.Matches(Request{Subject: bob, Roles: []string{"admin"}, Resource: "x", Action: "y"}) {
		t.Fatal("role match failed")
	}
}

func TestRuleTimeWindow(t *testing.T) {
	now := time.Now()
	r := Rule{
		Effect:    EffectPermit,
		NotBefore: now.Add(-time.Hour),
		NotAfter:  now.Add(time.Hour),
	}
	if !r.Matches(Request{Subject: alice, Resource: "x", Action: "y", Time: now}) {
		t.Fatal("in-window request rejected")
	}
	if r.Matches(Request{Subject: alice, Resource: "x", Action: "y", Time: now.Add(2 * time.Hour)}) {
		t.Fatal("out-of-window request matched")
	}
}

func TestCombiningAlgorithms(t *testing.T) {
	permit := Rule{ID: "p", Effect: EffectPermit, Actions: []string{"read"}}
	deny := Rule{ID: "d", Effect: EffectDeny, Actions: []string{"read"}}
	req := Request{Subject: alice, Resource: "x", Action: "read"}

	dOver := NewPolicy(DenyOverrides).Add(permit, deny)
	if got := dOver.Evaluate(req); got != Deny {
		t.Fatalf("DenyOverrides = %v", got)
	}
	pOver := NewPolicy(PermitOverrides).Add(deny, permit)
	if got := pOver.Evaluate(req); got != Permit {
		t.Fatalf("PermitOverrides = %v", got)
	}
	first := NewPolicy(FirstApplicable).Add(permit, deny)
	if got := first.Evaluate(req); got != Permit {
		t.Fatalf("FirstApplicable = %v", got)
	}
	firstDeny := NewPolicy(FirstApplicable).Add(deny, permit)
	if got := firstDeny.Evaluate(req); got != Deny {
		t.Fatalf("FirstApplicable(deny first) = %v", got)
	}
	// No matching rule.
	empty := NewPolicy(DenyOverrides)
	if got := empty.Evaluate(req); got != NotApplicable {
		t.Fatalf("empty policy = %v", got)
	}
}

func TestCombineConjunction(t *testing.T) {
	cases := []struct {
		in   []Decision
		want Decision
	}{
		{[]Decision{Permit, Permit}, Permit},
		{[]Decision{Permit, Deny}, Deny},
		{[]Decision{Deny, Permit}, Deny},
		{[]Decision{Permit, NotApplicable}, NotApplicable},
		{[]Decision{NotApplicable, Deny}, Deny},
		{nil, NotApplicable},
	}
	for i, c := range cases {
		if got := Combine(c.in...); got != c.want {
			t.Errorf("case %d: Combine(%v) = %v, want %v", i, c.in, got, c.want)
		}
	}
}

func TestGridMapRoundTrip(t *testing.T) {
	g := NewGridMap()
	g.Add(alice, "alice")
	g.Add(bob, "bsmith")
	text := g.Serialize()
	parsed, err := ParseGridMap(text)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != 2 {
		t.Fatalf("parsed %d entries", parsed.Len())
	}
	if acct, ok := parsed.Lookup(bob); !ok || acct != "bsmith" {
		t.Fatalf("Lookup(bob) = %q %v", acct, ok)
	}
}

func TestGridMapParseEdgeCases(t *testing.T) {
	g, err := ParseGridMap("# comment\n\n\"/O=Grid/CN=X\" xacct trailing ignored\n")
	if err != nil {
		t.Fatal(err)
	}
	if acct, ok := g.Lookup(gridcert.MustParseName("/O=Grid/CN=X")); !ok || acct != "xacct" {
		t.Fatalf("got %q %v", acct, ok)
	}
	for _, bad := range []string{
		"/O=Grid/CN=X xacct", // unquoted
		`"/O=Grid/CN=X`,      // unterminated
		`"/O=Grid/CN=X"`,     // missing account
		`"garbage" acct`,     // unparseable DN
	} {
		if _, err := ParseGridMap(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestGridMapRemove(t *testing.T) {
	g := NewGridMap()
	g.Add(alice, "alice")
	g.Remove(alice)
	if _, ok := g.Lookup(alice); ok {
		t.Fatal("entry survived Remove")
	}
}

// Property: Combine is order-insensitive for Permit/Deny inputs.
func TestPropertyCombineCommutative(t *testing.T) {
	f := func(perm []bool) bool {
		ds := make([]Decision, len(perm))
		for i, p := range perm {
			if p {
				ds[i] = Permit
			} else {
				ds[i] = Deny
			}
		}
		fwd := Combine(ds...)
		rev := make([]Decision, len(ds))
		for i := range ds {
			rev[i] = ds[len(ds)-1-i]
		}
		return fwd == Combine(rev...)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a DenyOverrides policy never permits a request that any
// matching rule denies.
func TestPropertyDenyOverridesSafety(t *testing.T) {
	f := func(includeDeny bool, nPermit uint8) bool {
		p := NewPolicy(DenyOverrides)
		for i := 0; i < int(nPermit%8); i++ {
			p.Add(Rule{Effect: EffectPermit})
		}
		if includeDeny {
			p.Add(Rule{Effect: EffectDeny})
		}
		d := p.Evaluate(Request{Subject: alice, Resource: "x", Action: "y"})
		if includeDeny {
			return d == Deny
		}
		return d != Deny
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPolicyEvaluate1000Rules(b *testing.B) {
	p := NewPolicy(DenyOverrides)
	for i := 0; i < 1000; i++ {
		p.Add(Rule{
			Effect:    EffectPermit,
			Subjects:  []string{"/O=Grid/CN=User" + string(rune('A'+i%26))},
			Resources: []string{"data:/set/*"},
			Actions:   []string{"read"},
		})
	}
	req := Request{Subject: alice, Resource: "data:/set/1", Action: "read"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Evaluate(req)
	}
}
