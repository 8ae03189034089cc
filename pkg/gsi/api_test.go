package gsi_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/pkg/gsi"
)

// echoHandler answers "echo" with the body and "whoami" with the
// authenticated peer identity.
func echoHandler(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
	switch op {
	case "echo":
		return body, nil
	case "whoami":
		return []byte(peer.Identity.String()), nil
	default:
		return nil, fmt.Errorf("no such op %q", op)
	}
}

// permitOnly builds a local policy admitting only subject.
func permitOnly(subject string) *gsi.Policy {
	return gsi.NewPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Subjects:  []string{subject},
		Resources: []string{"*"},
		Actions:   []string{"*"},
	})
}

// transportRoundTrip drives one transport end to end through the
// handles: serve, connect, exchange, peer identity, authorization deny.
func transportRoundTrip(t *testing.T, transport gsi.Transport, opts ...gsi.Option) {
	t.Helper()
	tb := newTestbed(t)
	server, err := tb.env.NewServer(tb.host, gsi.WithTransport(transport),
		gsi.WithLocalPolicy(permitOnly("/O=Grid/CN=Alice")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	clientOpts := append([]gsi.Option{gsi.WithTransport(transport)}, opts...)
	client, err := tb.env.NewClient(tb.alice, clientOpts...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatalf("%s connect: %v", transport, err)
	}
	defer sess.Close()

	out, err := sess.Exchange(ctx, "echo", []byte("ping"))
	if err != nil || string(out) != "ping" {
		t.Fatalf("%s echo: %v %q", transport, err, out)
	}
	who, err := sess.Exchange(ctx, "whoami", nil)
	if err != nil || string(who) != "/O=Grid/CN=Alice" {
		t.Fatalf("%s whoami: %v %q", transport, err, who)
	}

	// Bob authenticates but the server's local policy denies him.
	bob, err := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bobClient, err := tb.env.NewClient(bob, clientOpts...)
	if err != nil {
		t.Fatal(err)
	}
	bobSess, err := bobClient.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatalf("%s bob connect: %v", transport, err)
	}
	defer bobSess.Close()
	if _, err := bobSess.Exchange(ctx, "echo", []byte("hi")); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("%s bob exchange not ErrUnauthorized: %v", transport, err)
	}
}

// TestGT2SessionRoundTrip: the raw-socket transport through the handles.
func TestGT2SessionRoundTrip(t *testing.T) {
	transportRoundTrip(t, gsi.TransportGT2())
}

// TestGT3SessionRoundTrip: the SOAP/HTTP transport through the same
// handles — callers pick transport by option, not by function name.
func TestGT3SessionRoundTrip(t *testing.T) {
	transportRoundTrip(t, gsi.TransportGT3())
}

// TestGT3SignedSessionRoundTrip: the stateless per-message-signature
// mechanism over GT3.
func TestGT3SignedSessionRoundTrip(t *testing.T) {
	transportRoundTrip(t, gsi.TransportGT3(), gsi.WithMessageProtection(gsi.ProtectionSigned))
}

// TestSessionPeerIdentity: the client sees the server's identity on GT2
// and GT3 private sessions.
func TestSessionPeerIdentity(t *testing.T) {
	for _, transport := range []gsi.Transport{gsi.TransportGT2(), gsi.TransportGT3()} {
		tb := newTestbed(t)
		server, err := tb.env.NewServer(tb.host, gsi.WithTransport(transport))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		client, err := tb.env.NewClient(tb.alice, gsi.WithTransport(transport))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := client.Connect(ctx, ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if got := sess.Peer().Identity; !got.Equal(tb.host.Identity()) {
			t.Fatalf("%s peer = %q, want %q", transport, got, tb.host.Identity())
		}
		sess.Close()
		ep.Close()
	}
}

// TestWithExpectedPeer: a peer-identity pin that does not match fails
// the handshake with an authentication error.
func TestWithExpectedPeer(t *testing.T) {
	tb := newTestbed(t)
	server, err := tb.env.NewServer(tb.host)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	pinned, err := tb.env.NewClient(tb.alice,
		gsi.WithExpectedPeer(gsi.MustParseName("/O=Grid/CN=host other")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pinned.Connect(ctx, ep.Addr()); !errors.Is(err, gsi.ErrAuthentication) {
		t.Fatalf("identity mismatch not ErrAuthentication: %v", err)
	}

	correct, err := tb.env.NewClient(tb.alice,
		gsi.WithExpectedPeer(tb.host.Identity()))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := correct.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatalf("pinned connect: %v", err)
	}
	sess.Close()
}

// TestWithDelegationFlag: WithDelegation sets the GSS delegation flag,
// visible to the acceptor.
func TestWithDelegationFlag(t *testing.T) {
	tb := newTestbed(t)
	client, err := tb.env.NewClient(tb.alice, gsi.WithDelegation())
	if err != nil {
		t.Fatal(err)
	}
	_, actx, err := client.Establish(context.Background(), gsi.ContextConfig{
		Credential: tb.host,
		TrustStore: tb.env.Trust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !actx.DelegationRequested() {
		t.Fatal("delegation flag not visible to acceptor")
	}
}

// TestWithRejectLimited: a limited proxy is refused by a server built
// with WithRejectLimited.
func TestWithRejectLimited(t *testing.T) {
	tb := newTestbed(t)
	aliceClient, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := aliceClient.Proxy(gsi.ProxyOptions{
		Lifetime: time.Hour,
		Variant:  gsi.ProxyLimited,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, err := tb.env.NewServer(tb.host, gsi.WithRejectLimited())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	limClient, err := tb.env.NewClient(limited)
	if err != nil {
		t.Fatal(err)
	}
	// The initiator completes first in the 3-token handshake, so the
	// acceptor's rejection surfaces on the first exchange at the latest.
	sess, err := limClient.Connect(ctx, ep.Addr())
	if err == nil {
		_, err = sess.Exchange(ctx, "echo", []byte("x"))
		sess.Close()
	}
	if err == nil {
		t.Fatal("limited proxy accepted by WithRejectLimited server")
	}
	full, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	fullSess, err := full.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatalf("full credential refused: %v", err)
	}
	fullSess.Close()
}

// TestSubmitJobThroughClient: the Figure-4 GRAM flow through the new
// handle, context-first.
func TestSubmitJobThroughClient(t *testing.T) {
	tb := newTestbed(t)
	gm := gsi.NewGridMap()
	gm.Add(tb.alice.Identity(), "alice")
	resource, err := gsi.NewJobResource(tb.host, tb.env.Trust(), gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := resource.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := client.Proxy(gsi.ProxyOptions{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	proxyClient, err := tb.env.NewClient(proxy)
	if err != nil {
		t.Fatal(err)
	}
	mjs, err := proxyClient.SubmitJob(context.Background(), resource, gsi.JobDescription{
		Executable:         gsi.JobProgram,
		DelegateCredential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mjs.Job().State().String() != "Done" {
		t.Fatalf("job state = %v", mjs.Job().State())
	}
	// Canceled submissions never reach the resource.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := proxyClient.SubmitJob(canceled, resource, gsi.JobDescription{Executable: gsi.JobProgram}); !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("canceled SubmitJob: %v", err)
	}
}

// TestCASFlowThroughHandles: Figure 2 end to end on the new API —
// request assertion, embed, enforce.
func TestCASFlowThroughHandles(t *testing.T) {
	tb := newTestbed(t)
	vo, err := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=VO"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	casServer := gsi.NewCASServer(vo)
	casServer.AddMember(tb.alice.Identity(), "researchers")
	casServer.AddPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	})
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	assertion, err := client.RequestAssertion(context.Background(), casServer)
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := client.EmbedAssertion(assertion)
	if err != nil {
		t.Fatal(err)
	}
	enforcer := gsi.NewCASEnforcer(tb.env.Trust(), gsi.NewPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"data:/*"},
		Actions:   []string{"read"},
	}))
	enforcer.TrustVO(casServer.Certificate())
	res, err := enforcer.Authorize(restricted.Chain, "data:/climate/run1", "read", time.Time{})
	if err != nil || res.Decision != gsi.Permit {
		t.Fatalf("%v %+v", err, res)
	}
}
