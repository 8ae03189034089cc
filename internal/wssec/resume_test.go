package wssec

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gss"
	"repro/internal/soap"
	"repro/internal/wire"
)

// pipeCtx adapts a soap.Pipe to the context-aware transport shape.
func pipeCtx(d *soap.Dispatcher) ContextTransport {
	p := soap.Pipe(d)
	return func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return p(env)
	}
}

func TestResumeDerivesWorkingConversation(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	d.Handle("app/echo", mgr.Secure(func(peer gss.Peer, env *soap.Envelope) (*soap.Envelope, error) {
		return env.Reply(append([]byte("echo:"), env.Body...)), nil
	}))
	transport := pipeCtx(d)
	ctx := context.Background()

	parent, err := EstablishConversationContext(ctx, gss.Config{Credential: b.alice, TrustStore: b.ts}, transport)
	if err != nil {
		t.Fatal(err)
	}
	messages := 0
	child, err := parent.ResumeContext(ctx, func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		reply, err := transport(ctx, env)
		if messages++; reply != nil {
			messages++
		}
		return reply, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !child.Resumed {
		t.Fatal("child not marked resumed")
	}
	if child.ContextID == parent.ContextID {
		t.Fatal("resumed conversation reused the parent token")
	}
	// Resumption costs one round trip (2 messages) vs the bootstrap's 4.
	if messages != 2 {
		t.Fatalf("resume messages = %d, want 2", messages)
	}
	// The authenticated peer carries over without re-validation.
	if !child.Peer().Identity.Equal(parent.Peer().Identity) {
		t.Fatalf("peer = %q", child.Peer().Identity)
	}
	// Both parent and child carry application traffic, under distinct keys.
	for _, conv := range []*Conversation{child, parent} {
		reply, err := conv.CallContext(ctx, soap.NewEnvelope("app/echo", []byte("hi")))
		if err != nil {
			t.Fatal(err)
		}
		if string(reply.Body) != "echo:hi" {
			t.Fatalf("reply = %q", reply.Body)
		}
	}
	if mgr.Sessions() != 2 {
		t.Fatalf("server sessions = %d, want 2", mgr.Sessions())
	}
}

func TestResumeRejectsExpiredParent(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	transport := pipeCtx(d)

	clock := time.Now()
	now := func() time.Time { return clock }
	parent, err := EstablishConversationContext(context.Background(),
		gss.Config{Credential: b.alice, TrustStore: b.ts, Lifetime: time.Minute, Now: now}, transport)
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Minute)
	if _, err := parent.ResumeContext(context.Background(), transport); !errors.Is(err, gss.ErrContextExpired) {
		t.Fatalf("resume of expired parent: %v", err)
	}
}

func TestResumptionCacheAmortizesBootstrap(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	transport := pipeCtx(d)
	ctx := context.Background()
	cfg := gss.Config{Credential: b.alice, TrustStore: b.ts}

	rc := NewResumptionCache(0)
	first, resumed, err := rc.EstablishOrResume(ctx, "ep1", cfg, transport)
	if err != nil || resumed {
		t.Fatalf("first: resumed=%v err=%v", resumed, err)
	}
	for i := 0; i < 3; i++ {
		conv, resumed, err := rc.EstablishOrResume(ctx, "ep1", cfg, transport)
		if err != nil || !resumed {
			t.Fatalf("call %d: resumed=%v err=%v", i, resumed, err)
		}
		if conv.ContextID == first.ContextID {
			t.Fatal("child shares the parent token")
		}
	}
	st := rc.Stats()
	if st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("stats = %+v, want 1 miss / 3 hits", st)
	}
	// A different key bootstraps separately.
	if _, resumed, err := rc.EstablishOrResume(ctx, "ep2", cfg, transport); err != nil || resumed {
		t.Fatalf("ep2: resumed=%v err=%v", resumed, err)
	}
}

// TestResumeRequiresProofOfPossession: the context token travels in
// cleartext headers, so knowing it must not be enough — a forged
// resume request without the parent's MIC keys is rejected.
func TestResumeRequiresProofOfPossession(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	transport := pipeCtx(d)

	parent, err := EstablishConversationContext(context.Background(), gss.Config{Credential: b.alice, TrustStore: b.ts}, transport)
	if err != nil {
		t.Fatal(err)
	}
	// An observer who captured the context ID crafts a resume request
	// with its own nonce and a bogus MIC.
	nonce := make([]byte, gss.ResumeNonceSize)
	forged := soap.NewEnvelope(ActionResume,
		wire.NewEncoder().Bytes(nonce).Bytes(make([]byte, 32)).Finish())
	forged.SetHeader(SCTHeader, []byte(parent.ContextID))
	if _, err := transport(context.Background(), forged); err == nil {
		t.Fatal("forged resume request accepted")
	}
	if got := mgr.Sessions(); got != 1 {
		t.Fatalf("server sessions = %d after forgery, want 1", got)
	}
}

// TestResumeReplayRejected: a captured legitimate resume request
// replayed verbatim must not mint a second server session.
func TestResumeReplayRejected(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	inner := soap.Pipe(d)

	// A wiretap transport that records the resume request.
	var captured *soap.Envelope
	transport := func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		if env.Action == ActionResume {
			cp := *env
			captured = &cp
		}
		return inner(env)
	}
	parent, err := EstablishConversationContext(context.Background(), gss.Config{Credential: b.alice, TrustStore: b.ts}, transport)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.ResumeContext(context.Background(), transport); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no resume request captured")
	}
	sessions := mgr.Sessions()
	if _, err := inner(captured); err == nil {
		t.Fatal("replayed resume request accepted")
	}
	if got := mgr.Sessions(); got != sessions {
		t.Fatalf("sessions grew %d -> %d on replay", sessions, got)
	}
	// A fresh, honest resumption still works.
	if _, err := parent.ResumeContext(context.Background(), transport); err != nil {
		t.Fatalf("legitimate resume after replay attempt: %v", err)
	}
}

func TestResumeUnknownContextRejected(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	transport := pipeCtx(d)

	parent, err := EstablishConversationContext(context.Background(), gss.Config{Credential: b.alice, TrustStore: b.ts}, transport)
	if err != nil {
		t.Fatal(err)
	}
	forged := *parent
	forged.ContextID = "sct-deadbeef"
	if _, err := forged.ResumeContext(context.Background(), transport); err == nil {
		t.Fatal("resume with unknown token accepted")
	}
}

// InvalidateMatching drops exactly the matching parents: subsequent
// EstablishOrResume calls under the dropped key must bootstrap fresh
// (a miss), never resume off the invalidated conversation — the
// credential-rotation guarantee.
func TestResumptionCacheInvalidateMatching(t *testing.T) {
	b := newBed(t)
	d := soap.NewDispatcher()
	mgr := NewConversationManager(gss.Config{Credential: b.host, TrustStore: b.ts})
	mgr.Register(d)
	transport := pipeCtx(d)
	ctx := context.Background()
	cfg := gss.Config{Credential: b.alice, TrustStore: b.ts}

	rc := NewResumptionCache(8)
	for _, key := range []string{"ep|cred-old", "ep2|cred-old", "ep|cred-new"} {
		if _, resumed, err := rc.EstablishOrResume(ctx, key, cfg, transport); err != nil || resumed {
			t.Fatalf("bootstrap of %q: resumed=%v err=%v", key, resumed, err)
		}
	}
	if st := rc.Stats(); st.Len != 3 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 3 cached bootstraps", st)
	}

	// Warm path sanity: the cached parent resumes.
	if _, resumed, err := rc.EstablishOrResume(ctx, "ep|cred-old", cfg, transport); err != nil || !resumed {
		t.Fatalf("warm resume: resumed=%v err=%v", resumed, err)
	}

	dropped := rc.InvalidateMatching(func(key string) bool {
		return len(key) >= 8 && key[len(key)-8:] == "cred-old"
	})
	if dropped != 2 {
		t.Fatalf("dropped = %d, want the 2 old-credential parents", dropped)
	}
	if st := rc.Stats(); st.Len != 1 {
		t.Fatalf("len = %d, want only the new-credential parent", st.Len)
	}

	// The invalidated keys bootstrap fresh; the surviving key resumes.
	misses := rc.Stats().Misses
	if _, resumed, err := rc.EstablishOrResume(ctx, "ep|cred-old", cfg, transport); err != nil || resumed {
		t.Fatalf("post-invalidation establish: resumed=%v err=%v", resumed, err)
	}
	if got := rc.Stats().Misses; got != misses+1 {
		t.Fatalf("misses = %d, want %d", got, misses+1)
	}
	if _, resumed, err := rc.EstablishOrResume(ctx, "ep|cred-new", cfg, transport); err != nil || !resumed {
		t.Fatalf("surviving parent must resume: resumed=%v err=%v", resumed, err)
	}
}
