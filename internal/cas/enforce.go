package cas

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/gridcert"
)

// CheckAssertion extracts and fully verifies the CAS assertion a
// validated chain carries: decode, trusted-VO resolution, signature and
// validity window, subject binding, rule effects. It is the one
// implementation of the "is this community statement usable?" question;
// the resource side of Figure 2 (step 3) — the facade's authorization
// pipeline — asks it before any VO rule is evaluated. Outcomes:
//
//   - (nil, "", nil): the chain carries no assertion at all — the
//     caller falls back to local policy;
//   - (a, "", nil): a is fully verified, bound to the chain's identity,
//     and every rule it carries has a valid effect;
//   - (nil, reason, err): an assertion is present but unusable — the
//     caller must deny, quoting reason (err adds detail and may be nil).
func CheckAssertion(info *gridcert.ChainInfo, trustedVO func(gridcert.Name) (*gridcert.Certificate, bool), now time.Time) (*Assertion, string, error) {
	assertion, aerr := ExtractAssertion(info)
	switch {
	case errors.Is(aerr, ErrNoAssertion):
		return nil, "", nil
	case aerr != nil:
		// Present but malformed: failing open here (degrading to
		// local-policy-only) is the bug this path exists to prevent.
		return nil, "CAS assertion present but invalid", aerr
	}
	casCert, trusted := trustedVO(assertion.VO)
	if !trusted {
		return nil, fmt.Sprintf("assertion from untrusted VO %q", assertion.VO), nil
	}
	if err := assertion.Verify(casCert, now); err != nil {
		return nil, "assertion verification failed", err
	}
	if !assertion.Subject.Equal(info.Identity) {
		return nil, "assertion subject does not match authenticated identity", nil
	}
	for _, r := range assertion.Rules {
		// A signed assertion can still carry an effect byte outside the
		// enum; refusing it here keeps an attacker-chosen zero effect from
		// ever reaching rule evaluation.
		if !r.Effect.Valid() {
			return nil, "assertion carries a rule with an invalid effect",
				fmt.Errorf("cas: assertion rule %q has invalid effect %d (want EffectPermit or EffectDeny)", r.ID, r.Effect)
		}
	}
	return assertion, "", nil
}
