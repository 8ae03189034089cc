package authz

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/wire"
)

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The binary rule codec, shared by every subsystem that moves rules
// across a durability or trust boundary — CAS assertions and policy
// bundles, WAL-journaled mutations, durable snapshots. One codec means
// the enforcement path and the persistence path cannot drift.

// WireEncodeRule appends one rule to e.
func WireEncodeRule(e *wire.Encoder, r Rule) {
	e.Str(r.ID)
	e.U8(uint8(r.Effect))
	WireEncodeStrings(e, r.Subjects)
	WireEncodeStrings(e, r.Groups)
	WireEncodeStrings(e, r.Roles)
	WireEncodeStrings(e, r.Resources)
	WireEncodeStrings(e, r.Actions)
	e.I64(unixOrZero(r.NotBefore))
	e.I64(unixOrZero(r.NotAfter))
}

// WireDecodeRule reads one rule from d (check d.Err / d.Done after; the
// decoded Effect is NOT validated here — callers feed rules through
// AddChecked or equivalent).
func WireDecodeRule(d *wire.Decoder) Rule {
	var r Rule
	r.ID = d.Str()
	r.Effect = Effect(d.U8())
	r.Subjects = WireDecodeStrings(d)
	r.Groups = WireDecodeStrings(d)
	r.Roles = WireDecodeStrings(d)
	r.Resources = WireDecodeStrings(d)
	r.Actions = WireDecodeStrings(d)
	r.NotBefore = timeOrZero(d.I64())
	r.NotAfter = timeOrZero(d.I64())
	return r
}

// WireEncodeStrings appends a counted string list to e.
func WireEncodeStrings(e *wire.Encoder, ss []string) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// WireDecodeStrings reads a counted string list from d (≤ 4096
// entries; longer lists poison the decoder).
func WireDecodeStrings(d *wire.Decoder) []string {
	n := d.Count("string list", 4096)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Str())
	}
	return out
}

func unixOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.Unix()
}

func timeOrZero(v int64) time.Time {
	if v == 0 {
		return time.Time{}
	}
	return time.Unix(v, 0).UTC()
}

// --- durable state snapshots -------------------------------------------

const policyStateVersion = 1
const gridmapStateVersion = 1

// EncodeState snapshots the policy — combining mode, generation, and
// every rule — for a durable-store snapshot. RestoreState reverses it.
func (p *Policy) EncodeState() []byte {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e := wire.NewEncoder()
	e.U8(policyStateVersion)
	e.U8(uint8(p.combining))
	e.U64(p.gen)
	e.U32(uint32(len(p.rules)))
	for _, r := range p.rules {
		WireEncodeRule(e, r)
	}
	return e.Finish()
}

// RestoreState replaces the policy's rules, combining mode, and
// generation with a snapshot's, without journaling. Fail closed: a
// snapshot carrying an invalid effect or truncated encoding leaves the
// policy untouched.
func (p *Policy) RestoreState(b []byte) error {
	d := wire.NewDecoder(b)
	if v := d.U8(); d.Err() == nil && v != policyStateVersion {
		return fmt.Errorf("authz: unknown policy state version %d", v)
	}
	combining := Combining(d.U8())
	gen := d.U64()
	n := d.Count("snapshot rule", maxJournaledRules)
	rules := make([]Rule, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		rules = append(rules, WireDecodeRule(d))
	}
	if err := d.Done(); err != nil {
		return err
	}
	if combining != DenyOverrides && combining != PermitOverrides && combining != FirstApplicable {
		return fmt.Errorf("authz: snapshot declares unknown combining mode %d", combining)
	}
	if err := checkEffects("snapshot rule", rules); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = rules
	p.combining = combining
	p.gen = gen
	return nil
}

// EncodeState snapshots the gridmap — generation and every entry — for
// a durable-store snapshot. RestoreState reverses it.
func (g *GridMap) EncodeState() []byte {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e := wire.NewEncoder()
	e.U8(gridmapStateVersion)
	e.U64(g.gen)
	dns := sortedKeys(g.entries)
	e.U32(uint32(len(dns)))
	for _, dn := range dns {
		e.Str(dn)
		e.Str(g.entries[dn])
	}
	return e.Finish()
}

// RestoreState replaces the gridmap's entries and generation with a
// snapshot's, without journaling.
func (g *GridMap) RestoreState(b []byte) error {
	d := wire.NewDecoder(b)
	if v := d.U8(); d.Err() == nil && v != gridmapStateVersion {
		return fmt.Errorf("authz: unknown gridmap state version %d", v)
	}
	gen := d.U64()
	n := d.Count("snapshot gridmap entry", maxJournaledEntries)
	entries := make(map[string]string, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		dn := d.Str()
		acct := d.Str()
		if d.Err() == nil {
			if dn == "" || !validAccount(acct) {
				return fmt.Errorf("authz: snapshot gridmap entry %q -> %q invalid", dn, acct)
			}
			entries[dn] = acct
		}
	}
	if err := d.Done(); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entries = entries
	g.gen = gen
	return nil
}
