package authz

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/gridcert"
	"repro/internal/israce"
)

// TestPolicyEvaluateAllocs: a 65-rule local policy scan allocates
// nothing. Every rule passes resource and action, half of them list
// subjects (none the requester's, so each is compared in full), half
// list groups, and the last permits by subject: the scan visits every
// rule in place and matches subjects without rendering the DN.
func TestPolicyEvaluateAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	p := NewPolicy(DenyOverrides)
	for i := 0; i < 64; i++ {
		r := Rule{
			ID: fmt.Sprintf("site-%02d", i), Effect: EffectPermit,
			Resources: []string{"data:/climate/*"}, Actions: []string{"read", "write"},
			NotAfter: time.Now().Add(time.Hour),
		}
		if i%2 == 0 {
			r.Subjects = []string{fmt.Sprintf("/O=Grid/OU=Site/CN=operator %02d", i), "/O=Grid/CN=Alicia"}
		} else {
			r.Groups = []string{fmt.Sprintf("site-%02d", i)}
		}
		p.Add(r)
	}
	p.Add(Rule{ID: "alice", Effect: EffectPermit, Subjects: []string{alice.String()}, Resources: []string{"data:/climate/*"}, Actions: []string{"read"}})
	req := Request{Subject: alice, Groups: []string{"researchers"}, Resource: "data:/climate/run1", Action: "read", Time: time.Now()}
	if d := p.Evaluate(req); d != Permit {
		t.Fatalf("Evaluate = %v, want permit", d)
	}
	if allocs := testing.AllocsPerRun(200, func() { p.Evaluate(req) }); allocs != 0 {
		t.Fatalf("a 65-rule Evaluate allocates %.1f, want 0", allocs)
	}
	bob := req
	bob.Subject = gridcert.MustParseName("/O=Grid/CN=Bob")
	if d := p.Evaluate(bob); d != NotApplicable {
		t.Fatalf("Evaluate(bob) = %v, want not-applicable", d)
	}
}
