package wssec

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/gss"
	"repro/internal/soap"
)

type bed struct {
	auth  *ca.Authority
	ts    *gridcert.TrustStore
	alice *gridcert.Credential
	host  *gridcert.Credential
}

func newBed(t testing.TB) bed {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	ts := gridcert.NewTrustStore()
	if err := ts.AddRoot(auth.Certificate()); err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host svc"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return bed{auth: auth, ts: ts, alice: alice, host: host}
}

func TestSecureConversationEstablish(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	pipe, messages := soap.Pipe(d), 0
	transport := func(env *soap.Envelope) (*soap.Envelope, error) {
		reply, err := pipe(env)
		if messages++; reply != nil {
			messages++
		}
		return reply, err
	}

	conv, err := EstablishConversation(gss.Config{Credential: b.alice, TrustStore: b.ts}, transport)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Peer().Identity.String() != "/O=Grid/CN=host svc" {
		t.Fatalf("peer = %q", conv.Peer().Identity)
	}
	if mgr.Sessions() != 1 {
		t.Fatalf("sessions = %d", mgr.Sessions())
	}
	// SOAP carriage costs 4 messages (two request/response pairs) versus
	// GT2's 3 raw frames — same tokens, different envelope count.
	if messages != 4 {
		t.Fatalf("establishment messages = %d, want 4", messages)
	}
}

func TestSecuredApplicationCall(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)

	var sawPeer gss.Peer
	d.Handle("app/echo", mgr.Secure(func(peer gss.Peer, env *soap.Envelope) (*soap.Envelope, error) {
		sawPeer = peer
		return env.Reply(append([]byte("echo:"), env.Body...)), nil
	}))
	transport := soap.Pipe(d)

	conv, err := EstablishConversation(gss.Config{Credential: b.alice, TrustStore: b.ts}, transport)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := conv.Call(soap.NewEnvelope("app/echo", []byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Body) != "echo:hello" {
		t.Fatalf("reply = %q", reply.Body)
	}
	if sawPeer.Identity.String() != "/O=Grid/CN=Alice" {
		t.Fatalf("service saw peer %q", sawPeer.Identity)
	}
}

func TestSecuredCallWithoutContextRejected(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	d.Handle("app/op", mgr.Secure(func(peer gss.Peer, env *soap.Envelope) (*soap.Envelope, error) {
		return env.Reply(nil), nil
	}))
	// No SCT header.
	if _, err := d.Dispatch(soap.NewEnvelope("app/op", []byte("x"))); err == nil {
		t.Fatal("unsecured message accepted")
	}
	// Bogus SCT.
	env := soap.NewEnvelope("app/op", []byte("x"))
	env.SetHeader(SCTHeader, []byte("sct-bogus"))
	if _, err := d.Dispatch(env); err == nil {
		t.Fatal("unknown context accepted")
	}
}

func TestConversationOverHTTP(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	d.Handle("app/op", mgr.Secure(func(peer gss.Peer, env *soap.Envelope) (*soap.Envelope, error) {
		return env.Reply([]byte("over http")), nil
	}))
	srv, err := soap.NewServer("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &soap.Client{Endpoint: srv.URL()}
	conv, err := EstablishConversation(gss.Config{Credential: b.alice, TrustStore: b.ts}, client.Call)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := conv.Call(soap.NewEnvelope("app/op", []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Body) != "over http" {
		t.Fatalf("reply = %q", reply.Body)
	}
}

func TestConversationExpire(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	now := time.Now()
	clock := func() time.Time { return now }
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts, Lifetime: time.Minute, Now: clock})
	mgr.Register(d)
	transport := soap.Pipe(d)
	if _, err := EstablishConversation(gss.Config{Credential: b.alice, TrustStore: b.ts, Now: clock}, transport); err != nil {
		t.Fatal(err)
	}
	if mgr.Sessions() != 1 {
		t.Fatal("no session")
	}
	now = now.Add(2 * time.Minute)
	mgr.mu.Lock()
	mgr.expireLocked()
	mgr.mu.Unlock()
	if mgr.Sessions() != 0 {
		t.Fatal("expired session not evicted")
	}
}

func TestPolicyPublishFetchIntersect(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	rootFP := hex.EncodeToString(fpOf(b.auth))
	pol := &PolicyDocument{
		Service:            "gram/mmjfs",
		Mechanisms:         []Mechanism{MechSecureConversation, MechMessageSignature},
		AcceptedTokenTypes: []string{"gsi:proxy", "cas:assertion"},
		TrustRoots:         []string{rootFP},
	}
	data, err := pol.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d.Handle(ActionGetPolicy, func(env *soap.Envelope) (*soap.Envelope, error) {
		return env.Reply(data), nil
	})
	got, err := FetchPolicy(soap.Pipe(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != "gram/mmjfs" || len(got.Mechanisms) != 2 {
		t.Fatalf("fetched policy: %+v", got)
	}

	ag, err := Intersect(ClientCapabilities{
		Mechanisms:            []Mechanism{MechMessageSignature, MechSecureConversation},
		TokenTypes:            []string{"gsi:proxy"},
		TrustRootFingerprints: []string{rootFP},
	}, got)
	if err != nil {
		t.Fatal(err)
	}
	// Service preference order wins: wssc first.
	if ag.Mechanism != MechSecureConversation || ag.TokenType != "gsi:proxy" {
		t.Fatalf("agreement = %+v", ag)
	}
}

func fpOf(auth *ca.Authority) []byte {
	fp := auth.Certificate().Fingerprint()
	return fp[:]
}

func TestIntersectFailures(t *testing.T) {
	pol := &PolicyDocument{
		Mechanisms:         []Mechanism{MechSecureConversation},
		AcceptedTokenTypes: []string{"gsi:proxy"},
		TrustRoots:         []string{"aa"},
		RequireEncryption:  true,
	}
	// No mechanism overlap.
	if _, err := Intersect(ClientCapabilities{Mechanisms: []Mechanism{MechMessageSignature}}, pol); err == nil {
		t.Fatal("agreed without mechanism overlap")
	}
	// No token overlap.
	if _, err := Intersect(ClientCapabilities{
		Mechanisms: []Mechanism{MechSecureConversation},
		TokenTypes: []string{"krb5:ticket"},
	}, pol); err == nil {
		t.Fatal("agreed without token overlap")
	}
	// No shared trust root.
	if _, err := Intersect(ClientCapabilities{
		Mechanisms:            []Mechanism{MechSecureConversation},
		TokenTypes:            []string{"gsi:proxy"},
		TrustRootFingerprints: []string{"bb"},
	}, pol); err == nil {
		t.Fatal("agreed without shared root")
	}
	// Encryption required but unsupported.
	if _, err := Intersect(ClientCapabilities{
		Mechanisms:            []Mechanism{MechSecureConversation},
		TokenTypes:            []string{"gsi:proxy"},
		TrustRootFingerprints: []string{"aa"},
	}, pol); err == nil {
		t.Fatal("agreed without encryption capability")
	}
	// All satisfied.
	ag, err := Intersect(ClientCapabilities{
		Mechanisms:            []Mechanism{MechSecureConversation},
		TokenTypes:            []string{"gsi:proxy"},
		TrustRootFingerprints: []string{"aa"},
		CanEncrypt:            true,
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !ag.Encrypt {
		t.Fatal("agreement does not record encryption")
	}
}

func TestPolicyXMLRoundTrip(t *testing.T) {
	pol := &PolicyDocument{
		Service:            "svc",
		Mechanisms:         []Mechanism{MechMessageSignature},
		AcceptedTokenTypes: []string{"gsi:proxy"},
		TrustRoots:         []string{"deadbeef"},
		RequireEncryption:  true,
	}
	data, err := pol.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<Policy>") {
		t.Fatal("not XML")
	}
	got, err := UnmarshalPolicy(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != "svc" || !got.RequireEncryption || len(got.TrustRoots) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
}

func BenchmarkGT3ConversationEstablish(b *testing.B) {
	bd := newBed(b)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: bd.host, TrustStore: bd.ts})
	mgr.Register(d)
	transport := soap.Pipe(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstablishConversation(gss.Config{Credential: bd.alice, TrustStore: bd.ts}, transport); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGT3SecuredCall4K(b *testing.B) {
	bd := newBed(b)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: bd.host, TrustStore: bd.ts})
	mgr.Register(d)
	d.Handle("app/op", mgr.Secure(func(peer gss.Peer, env *soap.Envelope) (*soap.Envelope, error) {
		return env.Reply(env.Body), nil
	}))
	conv, err := EstablishConversation(gss.Config{Credential: bd.alice, TrustStore: bd.ts}, soap.Pipe(d))
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.Call(soap.NewEnvelope("app/op", payload)); err != nil {
			b.Fatal(err)
		}
	}
}
