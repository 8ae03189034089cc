package secsvc

import (
	"strings"
	"testing"

	"repro/internal/gridcert"
	"repro/internal/ogsa"
)

func call(op string, body []byte) *ogsa.Call {
	return &ogsa.Call{Op: op, Body: body, Caller: ogsa.Identity{Name: gridcert.MustParseName("/O=Grid/CN=Caller")}}
}

func TestAuditChain(t *testing.T) {
	l := NewAuditLog()
	l.Record("invoke", "alice", "svc/op")
	l.Record("authz-deny", "bob", "svc/op2")
	l.Record("invoke", "alice", "svc/op3")
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if i := l.VerifyChain(); i != -1 {
		t.Fatalf("fresh chain corrupt at %d", i)
	}
	l.events[1].Detail = "rewritten"
	if i := l.VerifyChain(); i != 1 {
		t.Fatalf("tamper detected at %d, want 1", i)
	}
}

func TestAuditServiceOps(t *testing.T) {
	l := NewAuditLog()
	l.Record("invoke", "alice", "a")
	l.Record("deny", "bob", "b")

	reply, err := l.Invoke(call("Count", nil))
	if err != nil || string(reply) != "2" {
		t.Fatalf("Count: %q %v", reply, err)
	}
	reply, err = l.Invoke(call("Verify", nil))
	if err != nil || string(reply) != "intact" {
		t.Fatalf("Verify: %q %v", reply, err)
	}
	reply, err = l.Invoke(call("Query", []byte("deny")))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reply), "bob") || strings.Contains(string(reply), "alice") {
		t.Fatalf("Query = %q", reply)
	}
	l.events[0].Detail = "x"
	reply, _ = l.Invoke(call("Verify", nil))
	if !strings.Contains(string(reply), "corrupt at 0") {
		t.Fatalf("Verify after tamper = %q", reply)
	}
}

func TestAuditConcurrentRecord(t *testing.T) {
	l := NewAuditLog()
	done := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				l.Record("e", "s", "d")
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if l.Len() != 400 {
		t.Fatalf("len = %d", l.Len())
	}
	if i := l.VerifyChain(); i != -1 {
		t.Fatalf("concurrent chain corrupt at %d", i)
	}
}
