package authz

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gridcert"
)

// matchesSubjectsFirst is Rule.Matches as it was before the matchers
// were reordered: time window, then subjects (the DN rendered for every
// rule with any subject matcher), then resources, then actions.
func matchesSubjectsFirst(r Rule, req Request) bool {
	t := req.time()
	if !r.NotBefore.IsZero() && t.Before(r.NotBefore) {
		return false
	}
	if !r.NotAfter.IsZero() && t.After(r.NotAfter) {
		return false
	}
	subjectOK := len(r.Subjects) == 0 && len(r.Groups) == 0 && len(r.Roles) == 0
	subj := req.Subject.String()
	for _, s := range r.Subjects {
		subjectOK = subjectOK || s == "*" || s == subj
	}
	for _, g := range r.Groups {
		for _, have := range req.Groups {
			subjectOK = subjectOK || g == have
		}
	}
	for _, role := range r.Roles {
		for _, have := range req.Roles {
			subjectOK = subjectOK || role == have
		}
	}
	if !subjectOK {
		return false
	}
	return matchAny(r.Resources, req.Resource, matchResource) && matchAny(r.Actions, req.Action, matchExactOrStar)
}

// TestMatchOrderIsUnobservable: a rule is a conjunction, so testing
// resources and actions before subjects (and rendering the DN only for a
// rule that lists Subjects) cannot change any answer. Differential
// against the old order over seeded random rules and requests: time
// windows, "*", groups, roles, exact and prefix resources.
func TestMatchOrderIsUnobservable(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	now := time.Unix(1_700_000_000, 0)
	dns := make([]gridcert.Name, 6)
	for i := range dns {
		dns[i] = gridcert.MustParseName(fmt.Sprintf("/O=Grid/OU=Match/CN=user %d", i))
	}
	some := func(from []string, max int) []string {
		var out []string
		for n := rng.Intn(max + 1); n > 0; n-- {
			out = append(out, from[rng.Intn(len(from))])
		}
		return out
	}
	subjects := []string{"*", dns[0].String(), dns[1].String(), dns[2].String(), "/O=Grid/CN=nobody"}
	groups := []string{"researchers", "students", "staff"}
	roles := []string{"operator", "reader"}
	resources := []string{"*", "data:/a/*", "data:/a/b", "data:/a/b/*", "data:/c", "data:*", "job:/q"}
	actions := []string{"*", "read", "write", "submit"}
	window := func() time.Time {
		if rng.Intn(3) > 0 {
			return time.Time{}
		}
		return now.Add(time.Duration(rng.Intn(7)-3) * time.Hour)
	}
	const pairs = 20_000
	matched := 0
	for i := 0; i < pairs; i++ {
		r := Rule{
			ID: fmt.Sprintf("r%d", i), Effect: EffectPermit,
			Subjects: some(subjects, 2), Groups: some(groups, 2), Roles: some(roles, 1),
			Resources: some(resources, 2), Actions: some(actions, 2),
			NotBefore: window(), NotAfter: window(),
		}
		req := Request{
			Subject: dns[rng.Intn(len(dns))], Groups: some(groups, 2), Roles: some(roles, 1),
			Resource: []string{"data:/a/b", "data:/a/b/c", "data:/c", "job:/q", "other"}[rng.Intn(5)],
			Action:   []string{"read", "write", "submit", "delete"}[rng.Intn(4)],
			Time:     now,
		}
		got, want := r.Matches(req), matchesSubjectsFirst(r, req)
		if got != want {
			t.Fatalf("pair %d: Matches = %v, the old order says %v\nrule %+v\nrequest %+v", i, got, want, r, req)
		}
		if got {
			matched++
		}
	}
	if matched < pairs/20 || matched > pairs*19/20 {
		t.Fatalf("%d of %d pairs matched; the generator is not exercising both answers", matched, pairs)
	}
}
