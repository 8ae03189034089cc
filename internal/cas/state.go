package cas

import (
	"fmt"
	"sort"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/wire"
)

// Durable CAS state: every Server mutation — membership, role
// assignment, VO policy — is journaled BEFORE it applies, carrying the
// post-mutation bundle version so a restarted community server resumes
// the exact version counter and replicas never see it move backwards.

// casMutationKind discriminates journaled CAS mutations.
type casMutationKind uint8

const (
	casMutMemberAdd    casMutationKind = 1
	casMutMemberRemove casMutationKind = 2
	casMutRoleAssign   casMutationKind = 3
	casMutPolicyAdd    casMutationKind = 4
)

const casMutationCodecVersion = 1

// maxBundleMembers bounds decoded membership tables. A 100,000-member
// VO bundle (5.5 MB signed, what the benchmark syncs) is the design
// point; the cap is about what a 16 MiB wire frame can carry.
const maxBundleMembers = 1 << 20

// SetJournal installs the persistence hook: each mutation's encoded
// record is handed to fn under the server's lock, so journal order
// equals application order. A journal error refuses the mutation.
func (s *Server) SetJournal(fn func(payload []byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = fn
}

// Version reports the bundle version: a monotonic counter bumped by
// every membership, role, or policy mutation. Exported bundles carry
// it; replicas refuse to move backwards.
func (s *Server) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

func encodeCASMutation(kind casMutationKind, version uint64, fill func(e *wire.Encoder)) []byte {
	e := wire.NewEncoder()
	e.U8(casMutationCodecVersion)
	e.U8(uint8(kind))
	e.U64(version)
	fill(e)
	return e.Finish()
}

// journalLocked journals one mutation record; the caller holds s.mu.
func (s *Server) journalLocked(kind casMutationKind, fill func(e *wire.Encoder)) error {
	if s.journal == nil {
		return nil
	}
	if err := s.journal(encodeCASMutation(kind, s.version+1, fill)); err != nil {
		return fmt.Errorf("cas: mutation not journaled: %w", err)
	}
	return nil
}

// AddMemberChecked is AddMember returning journal failures instead of
// panicking.
func (s *Server) AddMemberChecked(dn gridcert.Name, groups ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.journalLocked(casMutMemberAdd, func(e *wire.Encoder) {
		e.Str(dn.String())
		authz.WireEncodeStrings(e, groups)
	}); err != nil {
		return err
	}
	setKeyLocked(s.members, &s.memberOrder, dn.String(), append([]string(nil), groups...))
	s.version++
	s.deltaLogAppendLocked(DeltaOp{Kind: casMutMemberAdd, DN: dn.String(), Strings: groups})
	return nil
}

// RemoveMemberChecked expels a user, returning journal failures.
func (s *Server) RemoveMemberChecked(dn gridcert.Name) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := dn.String()
	_, isMember := s.members[key]
	_, hasRoles := s.roles[key]
	if !isMember && !hasRoles {
		return nil
	}
	if err := s.journalLocked(casMutMemberRemove, func(e *wire.Encoder) {
		e.Str(key)
	}); err != nil {
		return err
	}
	delete(s.members, key)
	delete(s.roles, key)
	s.memberOrder, s.roleOrder = nil, nil
	s.version++
	s.deltaLogAppendLocked(DeltaOp{Kind: casMutMemberRemove, DN: key})
	return nil
}

// AssignRoleChecked is AssignRole returning journal failures.
func (s *Server) AssignRoleChecked(dn gridcert.Name, roles ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.journalLocked(casMutRoleAssign, func(e *wire.Encoder) {
		e.Str(dn.String())
		authz.WireEncodeStrings(e, roles)
	}); err != nil {
		return err
	}
	setKeyLocked(s.roles, &s.roleOrder, dn.String(), append(s.roles[dn.String()], roles...))
	s.version++
	s.deltaLogAppendLocked(DeltaOp{Kind: casMutRoleAssign, DN: dn.String(), Strings: roles})
	return nil
}

// AddPolicyChecked is AddPolicy returning validation and journal
// failures. The VO policy's own generation advances inside s.policy;
// the bundle version advances here, under the same lock that ordered
// the journal record.
func (s *Server) AddPolicyChecked(rules ...authz.Rule) error {
	// Validate before journaling (the same check Policy.AddChecked
	// applies): a rule the policy would refuse must never reach the
	// journal — replay refuses it on every restart, so one rejected
	// live call would brick the durable state.
	for _, r := range rules {
		if !r.Effect.Valid() {
			return fmt.Errorf("cas: rule %q has invalid effect %d (want EffectPermit or EffectDeny)", r.ID, r.Effect)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.journalLocked(casMutPolicyAdd, func(e *wire.Encoder) {
		e.U32(uint32(len(rules)))
		for _, r := range rules {
			authz.WireEncodeRule(e, r)
		}
	}); err != nil {
		return err
	}
	if err := s.policy.AddChecked(rules...); err != nil {
		return err
	}
	s.version++
	s.deltaLogAppendLocked(DeltaOp{Kind: casMutPolicyAdd, Rules: rules})
	return nil
}

// ApplyReplayed applies one journaled mutation record without
// re-journaling, restoring the journaled version counter. Validation
// matches the mutating APIs': a record that would have been refused
// live is refused on replay.
func (s *Server) ApplyReplayed(payload []byte) error {
	d := wire.NewDecoder(payload)
	if v := d.U8(); d.Err() == nil && v != casMutationCodecVersion {
		return fmt.Errorf("cas: unknown mutation codec version %d", v)
	}
	kind := casMutationKind(d.U8())
	version := d.U64()
	s.mu.Lock()
	defer s.mu.Unlock()
	var op DeltaOp
	switch kind {
	case casMutMemberAdd:
		dn := d.Str()
		groups := authz.WireDecodeStrings(d)
		if err := d.Done(); err != nil {
			return err
		}
		if dn == "" {
			return fmt.Errorf("cas: replayed member with empty DN")
		}
		setKeyLocked(s.members, &s.memberOrder, dn, groups)
		op = DeltaOp{Kind: kind, DN: dn, Strings: groups}
	case casMutMemberRemove:
		dn := d.Str()
		if err := d.Done(); err != nil {
			return err
		}
		delete(s.members, dn)
		delete(s.roles, dn)
		s.memberOrder, s.roleOrder = nil, nil
		op = DeltaOp{Kind: kind, DN: dn}
	case casMutRoleAssign:
		dn := d.Str()
		roles := authz.WireDecodeStrings(d)
		if err := d.Done(); err != nil {
			return err
		}
		if dn == "" {
			return fmt.Errorf("cas: replayed role assignment with empty DN")
		}
		setKeyLocked(s.roles, &s.roleOrder, dn, append(s.roles[dn], roles...))
		op = DeltaOp{Kind: kind, DN: dn, Strings: roles}
	case casMutPolicyAdd:
		n := d.Count("replayed rule", maxAssertionRules)
		rules := make([]authz.Rule, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			rules = append(rules, authz.WireDecodeRule(d))
		}
		if err := d.Done(); err != nil {
			return err
		}
		if err := s.policy.AddChecked(rules...); err != nil {
			return err
		}
		op = DeltaOp{Kind: kind, Rules: rules}
	default:
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("cas: unknown mutation kind %d", kind)
	}
	s.version = version
	// Replayed mutations feed the delta log too, so a restarted
	// publisher can still serve deltas to replicas that tracked it
	// before the restart.
	s.deltaLogAppendLocked(op)
	return nil
}

const casStateVersion = 1

// EncodeState snapshots the server — version, membership, roles, and
// VO policy — for a durable-store snapshot. RestoreState reverses it.
func (s *Server) EncodeState() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := wire.NewEncoder()
	e.U8(casStateVersion)
	e.U64(s.version)
	encodeStringListMap(e, s.members, s.keptOrder(&s.memberOrder, s.members))
	encodeStringListMap(e, s.roles, s.keptOrder(&s.roleOrder, s.roles))
	e.Bytes(s.policy.EncodeState())
	return e.Finish()
}

// RestoreState replaces the server's state with a snapshot's, without
// journaling. Fail closed: a malformed snapshot leaves the server
// untouched.
func (s *Server) RestoreState(b []byte) error {
	c := &carver{text: string(b)}
	if v := c.take(1); c.err == nil && v[0] != casStateVersion {
		return fmt.Errorf("cas: unknown state version %d", v[0])
	}
	version := c.u64()
	members := c.listMap("snapshot member")
	roles := c.listMap("snapshot role holder")
	policyState := []byte(c.str())
	if c.err == nil && c.off != len(b) {
		c.err = fmt.Errorf("cas: %d trailing bytes in snapshot", len(b)-c.off)
	}
	if c.err != nil {
		return c.err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.policy.RestoreState(policyState); err != nil {
		return err
	}
	s.members, s.memberOrder = members, nil
	s.roles, s.roleOrder = roles, nil
	s.version = version
	// A snapshot collapses mutation history: deltas across the restore
	// point cannot be served, so replicas behind it fall back to a full
	// bundle.
	s.deltaLog = nil
	return nil
}

// setKeyLocked stores v under key, dropping the table's kept order if key
// is new; the caller holds s.mu for writing.
func setKeyLocked(table map[string][]string, order *[]string, key string, v []string) {
	if _, known := table[key]; !known {
		*order = nil
	}
	table[key] = v
}

// keptOrder returns table's keys in ascending order, sorted again only if
// a key has come or gone since the last export (that drops the order: an
// insert per enrolment would go quadratic); the caller holds s.mu.
func (s *Server) keptOrder(order *[]string, table map[string][]string) []string {
	s.orderMu.Lock()
	defer s.orderMu.Unlock()
	if *order == nil {
		*order = sortedKeys(table)
	}
	return *order
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// encodeStringListMap writes m in the order of keys: m's keys ascending,
// sorted here when the caller has not kept them.
func encodeStringListMap(e *wire.Encoder, m map[string][]string, keys []string) {
	if keys == nil {
		keys = sortedKeys(m)
	}
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Str(k)
		authz.WireEncodeStrings(e, m[k])
	}
}

func stringListMapSize(m map[string][]string) int {
	size := 4
	for k, v := range m {
		size += 8 + len(k)
		for _, s := range v {
			size += 4 + len(s)
		}
	}
	return size
}

// carver decodes wire-format tables out of text, one string copy of the
// encoded bytes: every string is a substring of text and every list a
// cap == len window of one arena, so a table costs a handful of
// allocations, not three a member, and an in-place append to one DN's
// list cannot reach a neighbour's. A table keeps all of text alive.
type carver struct {
	text string
	off  int
	err  error
}

func (c *carver) take(n int) string {
	if c.err == nil && (n < 0 || n > len(c.text)-c.off) {
		c.err = wire.ErrTruncated
	}
	if c.err != nil {
		return ""
	}
	c.off += n
	return c.text[c.off-n : c.off]
}

func (c *carver) u32() uint32 {
	if b := c.take(4); b != "" {
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	}
	return 0
}

func (c *carver) u64() uint64 { return uint64(c.u32())<<32 | uint64(c.u32()) }
func (c *carver) str() string { return c.take(int(c.u32())) }

func (c *carver) count(what string, max uint32) int {
	n := c.u32()
	if c.err == nil && n > max {
		c.err, n = fmt.Errorf("cas: %s count %d exceeds cap %d", what, n, max), 0
	}
	return int(n)
}

// listMap reads a DN -> string-list table, refusing what
// encodeStringListMap would not have written: an empty DN, keys not
// strictly ascending. The first pass checks the form and sizes the arena,
// so a table that is not all there allocates nothing; the second carves.
func (c *carver) listMap(what string) map[string][]string {
	n := c.count(what, maxBundleMembers)
	start, total, prev := c.off, 0, ""
	for i := 0; i < n && c.err == nil; i++ {
		k := c.str()
		for j := c.count("string list", 4096); j > 0; j-- { // authz.WireDecodeStrings' cap
			c.str()
			total++
		}
		if c.err == nil && k <= prev {
			c.err = fmt.Errorf("cas: %s %q is empty or not in ascending order", what, k)
		}
		prev = k
	}
	if c.err != nil {
		return nil
	}
	c.off = start
	m, arena := make(map[string][]string, n), make([]string, 0, total)
	for i := 0; i < n; i++ {
		k, lo := c.str(), len(arena)
		for j := c.u32(); j > 0; j-- {
			arena = append(arena, c.str())
		}
		m[k] = arena[lo:len(arena):len(arena)]
	}
	return m
}
