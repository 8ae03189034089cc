package gsi

import (
	"errors"
	"testing"
)

// TestClassifyFaultReason: a revoked or untrusted chain, which a GT3
// server reports inside an authentication fault, reads as
// ErrUntrustedIssuer on the client, as it does in process; any other
// authentication fault stays ErrAuthentication.
func TestClassifyFaultReason(t *testing.T) {
	for reason, want := range map[string]error{
		`wssec: completing context: gss: peer authentication failed: initiator chain: gridcert: certificate revoked: certificate "/O=Grid/CN=Bob"`: ErrUntrustedIssuer,
		"gss: peer authentication failed: initiator chain: gridcert: untrusted issuer":                                                             ErrUntrustedIssuer,
		"gss: peer authentication failed: bad transcript signature":                                                                                ErrAuthentication,
	} {
		if got := classifyFaultReason(reason); !errors.Is(got, want) {
			t.Errorf("classifyFaultReason(%q) = %v, want %v", reason, got, want)
		}
	}
}
