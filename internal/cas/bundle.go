package cas

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/wire"
)

// Policy bundles federate the VO outward: the community server exports
// its entire policy state — membership, roles, rules — as one signed,
// versioned document, and resource servers pull it to keep a local
// replica. The replica then answers VO-layer questions for requesters
// that did not present a CAS assertion, with the same intersection
// semantics: the resource stays the ultimate authority, the bundle only
// supplies the VO's half of the decision.

const bundleMagic = "cas-bundle-v1"

// Bundle is one signed export of a VO's policy state. One built in
// process answers for its fields; one that arrived as bytes (DecodeBundle)
// answers for those bytes: Verify, Encode and Replica.Apply go by them.
type Bundle struct {
	// VO is the issuing community's identity (the CAS server's DN).
	VO gridcert.Name
	// Version is the server's bundle version at export. Replicas apply
	// bundles in version order and never move backwards.
	Version uint64
	// IssuedAt stamps the export.
	IssuedAt time.Time
	// Members maps member DN -> VO groups; Roles maps member DN -> roles.
	Members map[string][]string
	Roles   map[string][]string
	// Rules is the full VO policy.
	Rules []authz.Rule

	Signature []byte
	signed    []byte // DecodeBundle's view of the signed bytes as they arrived

	memberOrder, roleOrder []string // the tables' keys ascending, where the publisher kept them
}

// tbs is the one bundle encoder: the bytes the VO signs (as received, if
// they were), sized up front — growing into 5.5 MB would copy it twice.
func (b *Bundle) tbs() []byte {
	if b.signed != nil {
		return b.signed
	}
	tail := wire.NewEncoder().U32(uint32(len(b.Rules)))
	for _, r := range b.Rules {
		authz.WireEncodeRule(tail, r)
	}
	vo := b.VO.String()
	e := wire.NewEncoder().Reset(make([]byte, 0,
		8+len(bundleMagic)+len(vo)+16+stringListMapSize(b.Members)+stringListMapSize(b.Roles)+tail.Len()))
	e.Str(bundleMagic).Str(vo).U64(b.Version).I64(b.IssuedAt.Unix())
	encodeStringListMap(e, b.Members, b.memberOrder)
	encodeStringListMap(e, b.Roles, b.roleOrder)
	return e.Raw(tail.Finish()).Finish()
}

// Encode serialises the bundle with its signature.
func (b *Bundle) Encode() []byte {
	return wire.NewEncoder().Bytes(b.tbs()).Bytes(b.Signature).Finish()
}

// DecodeBundle parses an encoded bundle (signature not verified). The
// bundle keeps a view of data: do not change data while holding it.
func DecodeBundle(data []byte) (*Bundle, error) {
	d := wire.NewDecoder(data)
	tbs, sig := d.View(), d.Bytes()
	if err := d.Done(); err != nil {
		return nil, err
	}
	b, err := decodeSigned(tbs, sig)
	if err == nil {
		b.signed = tbs
	}
	return b, err
}

// decodeSigned reads signed bytes into fields carved from one string copy
// of them (see carver), refusing what tbs would not have written.
func decodeSigned(tbs, sig []byte) (*Bundle, error) {
	c := &carver{text: string(tbs)}
	if magic := c.str(); c.err == nil && magic != bundleMagic {
		return nil, fmt.Errorf("cas: bad bundle magic %q", magic)
	}
	voStr := c.str()
	b := &Bundle{Version: c.u64(), Signature: sig}
	b.IssuedAt = time.Unix(int64(c.u64()), 0).UTC()
	b.Members = c.listMap("bundle member")
	b.Roles = c.listMap("bundle role holder")
	if c.err != nil {
		return nil, c.err
	}
	td := wire.NewDecoder(tbs[c.off:])
	n := td.Count("bundle rule", maxAssertionRules)
	for i := 0; i < n && td.Err() == nil; i++ {
		b.Rules = append(b.Rules, authz.WireDecodeRule(td))
	}
	if err := td.Done(); err != nil {
		return nil, err
	}
	var err error
	if b.VO, err = gridcert.ParseName(voStr); err != nil {
		return nil, err
	}
	if b.VO.String() != voStr {
		return nil, fmt.Errorf("cas: bundle VO %q is not in canonical form", voStr)
	}
	return b, nil
}

// Verify checks the bundle's signature against the CAS certificate.
func (b *Bundle) Verify(casCert *gridcert.Certificate) error {
	if !casCert.Subject.Equal(b.VO) {
		return fmt.Errorf("cas: bundle VO %q does not match CAS certificate %q", b.VO, casCert.Subject)
	}
	if err := casCert.PublicKey.Verify(b.tbs(), b.Signature); err != nil {
		return fmt.Errorf("cas: bundle signature: %w", err)
	}
	return nil
}

// exportSigned encodes the signed bytes of the server's state once,
// straight from the live tables under the read lock, and signs them.
func (s *Server) exportSigned() (version uint64, tbs, sig []byte, err error) {
	s.mu.RLock()
	live := Bundle{VO: s.VO(), Version: s.version, IssuedAt: s.now(), Members: s.members, Roles: s.roles, Rules: s.policy.Rules()}
	live.memberOrder, live.roleOrder = s.keptOrder(&s.memberOrder, s.members), s.keptOrder(&s.roleOrder, s.roles)
	tbs = live.tbs()
	s.mu.RUnlock()
	sig, err = s.cred.Key.Sign(tbs)
	return live.Version, tbs, sig, err
}

// ExportBundle snapshots the server's state as a signed bundle that
// answers for its fields: change one and it no longer verifies.
func (s *Server) ExportBundle() (*Bundle, error) {
	_, tbs, sig, err := s.exportSigned()
	if err != nil {
		return nil, err
	}
	return decodeSigned(tbs, sig)
}

// ErrStaleBundle reports an Apply with a version below the replica's.
var ErrStaleBundle = errors.New("cas: bundle version is stale")

// Replica is a resource server's local copy of one VO's bundle. Apply
// is fail-closed and generation-counted: a bundle that does not verify,
// carries an older version, or contains an invalid rule leaves the
// previous bundle live and the generation unchanged, so decision caches
// keyed on the generation stay warm across rejected syncs.
type Replica struct {
	cert *gridcert.Certificate

	mu      sync.RWMutex
	version uint64
	gen     uint64
	members map[string][]string
	roles   map[string][]string
	policy  *authz.Policy
}

// NewReplica creates an empty replica trusting casCert as the VO's
// signing certificate. Until the first successful Apply the replica
// holds version 0 and vouches for nobody.
func NewReplica(casCert *gridcert.Certificate) *Replica {
	return &Replica{
		cert:    casCert,
		members: map[string][]string{},
		roles:   map[string][]string{},
		policy:  authz.NewPolicy(authz.DenyOverrides),
	}
}

// VO returns the community identity the replica mirrors.
func (r *Replica) VO() gridcert.Name { return r.cert.Subject }

// Apply installs a bundle: it verifies b's signed bytes, then builds
// tables of its own from those same bytes, so what is installed is what
// the signature covers and shares nothing with b. Equal version is a
// no-op; lower is ErrStaleBundle; a bad signature or invalid rule is an
// error. In every failure case the previous bundle stays live.
func (r *Replica) Apply(b *Bundle) error {
	tbs := b.tbs()
	if err := r.cert.PublicKey.Verify(tbs, b.Signature); err != nil {
		return fmt.Errorf("cas: bundle signature: %w", err)
	}
	own, err := decodeSigned(tbs, b.Signature)
	if err != nil {
		return err
	}
	if !r.cert.Subject.Equal(own.VO) {
		return fmt.Errorf("cas: bundle VO %q does not match CAS certificate %q", own.VO, r.cert.Subject)
	}
	next := authz.NewPolicy(authz.DenyOverrides)
	if err := next.AddChecked(own.Rules...); err != nil {
		return fmt.Errorf("cas: bundle rejected: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if own.Version == r.version {
		return nil
	}
	if own.Version < r.version {
		return fmt.Errorf("%w: have %d, got %d", ErrStaleBundle, r.version, own.Version)
	}
	r.members, r.roles, r.policy, r.version = own.Members, own.Roles, next, own.Version
	r.gen++
	return nil
}

// Version reports the applied bundle version (0 = none yet).
func (r *Replica) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// Generation counts successful Applies. Decisions computed against the
// replica are only valid for the generation they were computed under.
func (r *Replica) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// Members reports the replica's membership count.
func (r *Replica) Members() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Lookup reports whether dn is a VO member, and if so its groups and
// roles from the applied bundle.
func (r *Replica) Lookup(dn gridcert.Name) (groups, roles []string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.members[dn.String()]
	if !ok {
		return nil, nil, false
	}
	return g, r.roles[dn.String()], true
}

// Evaluate answers the VO's half of a decision from the replica: the
// request is scored against the bundle's rules with the subject's
// bundle groups and roles attached. The caller intersects the result
// with local policy, exactly as it would an assertion's.
func (r *Replica) Evaluate(req authz.Request) authz.Decision {
	r.mu.RLock()
	groups, ok := r.members[req.Subject.String()]
	roles := r.roles[req.Subject.String()]
	policy := r.policy
	r.mu.RUnlock()
	if !ok {
		return authz.Deny
	}
	req.Groups = groups
	req.Roles = roles
	return policy.Evaluate(req)
}
