package cas

import (
	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/proxy"
)

// proxyNewForTest issues a restricted proxy carrying an arbitrary CAS
// policy blob without EmbedInProxy's subject check — used to simulate
// adversarial embeddings.
func proxyNewForTest(member *gridcert.Credential, blob []byte) (*gridcert.Credential, error) {
	return proxy.New(member, proxy.Options{
		Variant:        gridcert.ProxyRestricted,
		PolicyLanguage: PolicyLanguage,
		Policy:         blob,
	})
}

// evaluate is the replica's VO half for req as the pipeline asks for
// it (Decide), a non-member denied.
func evaluate(r *Replica, req authz.Request) authz.Decision {
	if d, ok := r.Decide(req.Subject.String(), &req); ok {
		return d
	}
	return authz.Deny
}
