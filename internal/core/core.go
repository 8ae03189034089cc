// Package core is the client-side hosting environment of the paper's
// §4–5: a Requestor that automates the Figure-3 secured-request pipeline
// against a hosting environment (ogsa.Container) publishing its security
// policy — policy discovery, credential conversion, token processing,
// and invocation — so that "security mechanisms should not have to be
// instantiated in an application but instead should be supplied by the
// surrounding Grid infrastructure."
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/gridcert"
	"repro/internal/ogsa"
	"repro/internal/wssec"
)

// Trace records where time went in one secured request — the measurable
// form of Figure 3's numbered steps.
type Trace struct {
	PolicyFetch     time.Duration // step 1
	Conversion      time.Duration // step 2 (zero when no conversion ran)
	TokenProcessing time.Duration // steps 3–4 (context establishment or signing)
	Invocation      time.Duration // delivery + step 5 + service time
	Mechanism       wssec.Mechanism
	Converted       bool
}

// Total sums the phases.
func (t Trace) Total() time.Duration {
	return t.PolicyFetch + t.Conversion + t.TokenProcessing + t.Invocation
}

// Converter obtains an acceptable credential when the requestor's current
// one does not satisfy the target's policy (Figure 3 step 2) — e.g. an
// online-CA exchange or a CAS assertion embedding.
type Converter func() (*gridcert.Credential, error)

// Requestor is the client-side hosting environment of Figure 3: it
// inspects the target's published policy, converts credentials if needed,
// selects and runs the token-processing mechanism, and delivers the
// request. The application supplies only (handle, op, body).
type Requestor struct {
	// Credential is the requestor's current credential (may be nil if a
	// Converter can produce one).
	Credential *gridcert.Credential
	// Trust validates targets.
	Trust *gridcert.TrustStore
	// Convert is consulted when the target's trust roots do not cover the
	// current credential; nil disables conversion.
	Convert Converter
	// PreferStateless picks per-message signing over secure conversation
	// when the target allows both.
	PreferStateless bool
}

// capabilities derives the client capabilities from a credential.
func (r *Requestor) capabilities(cred *gridcert.Credential) wssec.ClientCapabilities {
	caps := wssec.ClientCapabilities{
		Mechanisms: []wssec.Mechanism{wssec.MechSecureConversation, wssec.MechMessageSignature},
		TokenTypes: []string{"gsi:proxy"},
		CanEncrypt: true,
	}
	if r.PreferStateless {
		caps.Mechanisms = []wssec.Mechanism{wssec.MechMessageSignature, wssec.MechSecureConversation}
	}
	// Fingerprints of roots that could have issued this credential: the
	// client claims the roots in its own store (it can chain to any of
	// them that actually signed its chain; the serving side re-verifies).
	top := cred.Chain[len(cred.Chain)-1]
	if root, ok := r.Trust.Root(top.Issuer); ok {
		fp := root.Fingerprint()
		caps.TrustRootFingerprints = append(caps.TrustRootFingerprints, fmt.Sprintf("%x", fp[:]))
	}
	if root, ok := r.Trust.Root(top.Subject); ok {
		fp := root.Fingerprint()
		caps.TrustRootFingerprints = append(caps.TrustRootFingerprints, fmt.Sprintf("%x", fp[:]))
	}
	return caps
}

// Invoke runs the full Figure-3 pipeline against a target transport.
func (r *Requestor) Invoke(transport wssec.Transport, handle, op string, body []byte) ([]byte, Trace, error) {
	return r.InvokeContext(context.Background(), transport, handle, op, body)
}

// InvokeContext is Invoke honoring ctx: the pipeline aborts between the
// policy-fetch, conversion, token-processing, and invocation phases when
// the context ends, returning ctx.Err().
func (r *Requestor) InvokeContext(ctx context.Context, transport wssec.Transport, handle, op string, body []byte) ([]byte, Trace, error) {
	var trace Trace

	if err := ctx.Err(); err != nil {
		return nil, trace, err
	}
	// Step 1: retrieve and inspect the target's security policy.
	t0 := time.Now()
	pol, err := wssec.FetchPolicy(transport)
	if err != nil {
		return nil, trace, fmt.Errorf("core: fetching policy: %w", err)
	}
	trace.PolicyFetch = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, trace, err
	}

	// Step 2: determine whether current credentials satisfy the policy;
	// convert if not.
	cred := r.Credential
	var agreement wssec.Agreement
	if cred != nil {
		agreement, err = wssec.Intersect(r.capabilities(cred), pol)
	} else {
		err = errors.New("core: no credential")
	}
	if err != nil {
		if r.Convert == nil {
			return nil, trace, fmt.Errorf("core: policy mismatch and no converter: %w", err)
		}
		t1 := time.Now()
		cred, err = r.Convert()
		if err != nil {
			return nil, trace, fmt.Errorf("core: credential conversion: %w", err)
		}
		trace.Conversion = time.Since(t1)
		trace.Converted = true
		agreement, err = wssec.Intersect(r.capabilities(cred), pol)
		if err != nil {
			return nil, trace, fmt.Errorf("core: converted credential still unacceptable: %w", err)
		}
	}
	trace.Mechanism = agreement.Mechanism
	if err := ctx.Err(); err != nil {
		return nil, trace, err
	}

	// Steps 3–4: token processing, then delivery; step 5 (authorization)
	// runs inside the target container.
	client := &ogsa.Client{Transport: transport, Credential: cred, TrustStore: r.Trust}
	switch agreement.Mechanism {
	case wssec.MechSecureConversation:
		t2 := time.Now()
		// Warm the conversation so token processing is visible separately
		// from the invocation. FindServiceData may fail for services
		// without that SDE; the context is established regardless.
		client.InvokeSecure(handle, "FindServiceData", []byte("__warmup__"))
		trace.TokenProcessing = time.Since(t2)
		if err := ctx.Err(); err != nil {
			return nil, trace, err
		}
		t3 := time.Now()
		out, err := client.InvokeSecure(handle, op, body)
		trace.Invocation = time.Since(t3)
		return out, trace, err
	case wssec.MechMessageSignature:
		t3 := time.Now()
		out, err := client.InvokeSigned(handle, op, body)
		trace.Invocation = time.Since(t3)
		return out, trace, err
	default:
		return nil, trace, fmt.Errorf("core: unsupported mechanism %q", agreement.Mechanism)
	}
}
