package gsi

import "testing"

// TestWithDelegationFlag: WithDelegation sets the GSS delegation flag on
// the configuration every handshake of the handle starts from (the gss
// tests show the acceptor reads it).
func TestWithDelegationFlag(t *testing.T) {
	env, err := NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	var s settings
	if err := s.apply([]Option{WithDelegation()}); err != nil {
		t.Fatal(err)
	}
	if !s.contextConfig(env, nil).Delegate {
		t.Fatal("WithDelegation does not reach the handshake configuration")
	}
}
