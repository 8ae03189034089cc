package gsi_test

import (
	"context"
	"testing"
	"time"

	"repro/pkg/gsi"
)

// TestFacadeCASFlow drives the CAS helpers of the public API.
func TestFacadeCASFlow(t *testing.T) {
	tb := newTestbed(t)
	alice := tb.alice
	voCred, _ := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=VO"), 12*time.Hour)

	server := gsi.NewCASServer(voCred)
	server.AddMember(alice.Identity(), "g")
	server.AddPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Groups:    []string{"g"},
		Resources: []string{"r:/*"},
		Actions:   []string{"read"},
	})
	assertion, err := server.IssueAssertion(alice.Identity())
	if err != nil {
		t.Fatal(err)
	}
	client, err := tb.env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := client.EmbedAssertion(assertion)
	if err != nil {
		t.Fatal(err)
	}
	enforcer := gsi.NewCASEnforcer(tb.env.Trust(), gsi.NewPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"r:/*"},
		Actions:   []string{"read", "write"},
	}))
	enforcer.TrustVO(server.Certificate())
	res, err := enforcer.Authorize(cred.Chain, "r:/x", "read", time.Time{})
	if err != nil || res.Decision != gsi.Permit {
		t.Fatalf("%v %+v", err, res)
	}
}

// TestFacadeMyProxyAndGridMap drives the remaining constructors.
func TestFacadeMyProxyAndGridMap(t *testing.T) {
	authority, _ := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	alice, _ := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)

	repo := gsi.NewMyProxy()
	deposit, err := gsi.NewProxy(alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Store("alice", "pw", deposit, time.Hour); err != nil {
		t.Fatal(err)
	}
	info, err := repo.Info("alice")
	if err != nil || !info.Identity.Equal(alice.Identity()) {
		t.Fatalf("%v %+v", err, info)
	}

	gm := gsi.NewGridMap()
	gm.Add(alice.Identity(), "alice")
	if acct, ok := gm.Lookup(alice.Identity()); !ok || acct != "alice" {
		t.Fatal("gridmap lookup failed")
	}
	if _, err := gsi.GenerateKey(); err != nil {
		t.Fatal(err)
	}
	if _, err := gsi.ParseName("not-a-dn"); err == nil {
		t.Fatal("ParseName accepted junk")
	}
	if _, err := gsi.NewCA("junk", time.Hour); err == nil {
		t.Fatal("NewCA accepted junk subject")
	}
}

// TestGT2GT3CredentialCompatibility asserts the §6 claim: "GSI3 remains
// compatible (in terms of credential formats) with those used in GT2" —
// the very same proxy credential authenticates over the GT2 transport
// and the GT3 SOAP stack.
func TestGT2GT3CredentialCompatibility(t *testing.T) {
	tb := newTestbed(t)
	p, err := gsi.NewProxy(tb.alice, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := tb.env.NewClient(p)
	if err != nil {
		t.Fatal(err)
	}

	// GT2: raw transport mutual auth with the proxy.
	_, actx, err := client.Establish(context.Background(),
		gsi.ContextConfig{Credential: tb.host, TrustStore: tb.env.Trust()})
	if err != nil {
		t.Fatalf("GT2 path: %v", err)
	}
	if !actx.Peer().Identity.Equal(tb.alice.Identity()) {
		t.Fatalf("GT2 identity = %q", actx.Peer().Identity)
	}

	// GT3: the same credential drives the SOAP pipeline.
	svc := &gsi.ServiceClient{
		Transport:  gsi.PipeTransport(newPingContainer(t, tb)),
		Credential: p,
		TrustStore: tb.env.Trust(),
	}
	out, err := svc.InvokeSigned("ping", "ping", nil)
	if err != nil {
		t.Fatalf("GT3 path: %v", err)
	}
	if string(out) != "pong:"+tb.alice.Identity().String() {
		t.Fatalf("GT3 identity = %q", out)
	}
}
