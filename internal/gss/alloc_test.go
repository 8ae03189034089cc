package gss

import (
	"testing"

	"repro/internal/israce"
)

// TestEstablishAllocs: a full handshake between two in-memory parties
// over a warm trust store. Its key schedule, transcript and finished
// MACs allocate nothing; what is left is the tokens, the chains, the
// ECDH shares, the signatures and the two contexts: 85 allocations, 156
// when every HMAC built a crypto/hmac and every transcript step a digest
// and two slices. The ceiling is the 85 plus 2.
func TestEstablishAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; the ceiling only holds in plain builds")
	}
	tb := newTestbed(t)
	icfg := Config{Credential: tb.alice, TrustStore: tb.ts}
	acfg := Config{Credential: tb.bob, TrustStore: tb.ts}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := Establish(icfg, acfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Establish: %.0f allocations", allocs)
	if allocs > 87 {
		t.Fatalf("Establish allocates %.0f, want <= 87", allocs)
	}
}
