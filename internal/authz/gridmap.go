package authz

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"repro/internal/gridcert"
)

// GridMap is the grid-mapfile of the paper (§5.3 step 3): "a local
// configuration file containing mappings from GSI identities to local
// identities." The MMJFS consults it to pick the local account for a
// verified requester.
type GridMap struct {
	mu      sync.RWMutex
	entries map[string]string // DN string -> local account
	gen     uint64
	store   Store // nil = in-memory (the zero-dependency default)
}

// NewGridMap creates an empty map.
func NewGridMap() *GridMap {
	return &GridMap{entries: make(map[string]string)}
}

// Bind routes every subsequent mutation through store: each
// Add/Replace/Remove is journaled before it is applied, and a journal
// error refuses the mutation. Bind once, before the map goes live;
// replay restored state first, then bind.
func (g *GridMap) Bind(store Store) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.store = store
}

// Add maps a grid identity to a local account. The account must be a
// single token — non-empty, no whitespace or control characters —
// because Serialize writes it raw: an embedded newline would forge a
// whole extra mapfile line, and an embedded space would silently
// truncate on reparse. Violations panic (configuration error), as does
// a journal failure on a bound map; durable callers use AddChecked.
func (g *GridMap) Add(dn gridcert.Name, account string) {
	if err := g.AddChecked(dn, account); err != nil {
		panic(err)
	}
}

// AddChecked is Add returning validation and journal failures instead
// of panicking — the mutation entry point for durable deployments,
// where a full disk must refuse the mapping rather than crash the
// process.
func (g *GridMap) AddChecked(dn gridcert.Name, account string) error {
	// The empty DN is the identity an anonymous peer presents, and its
	// rendering ("/") does not survive a Serialize/Parse round trip —
	// reject it at the mutation API just as the parser does.
	if dn.Empty() {
		return errors.New("authz: gridmap entry for the empty DN")
	}
	if !validAccount(account) {
		return fmt.Errorf("authz: gridmap account %q must be one token without whitespace or control characters", account)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.store != nil {
		if err := g.store.Journal(Mutation{Kind: MutGridMapAdd, Gen: g.gen + 1, DN: dn.String(), Account: account}); err != nil {
			return fmt.Errorf("authz: gridmap mutation not journaled: %w", err)
		}
	}
	g.entries[dn.String()] = account
	g.gen++
	return nil
}

func validAccount(account string) bool {
	if account == "" {
		return false
	}
	for _, r := range account {
		if unicode.IsSpace(r) || unicode.IsControl(r) {
			return false
		}
	}
	return true
}

// Replace swaps this map's entire entry set for other's in one
// transaction, bumping the generation once. Reload paths parse a fresh
// mapfile into a throwaway GridMap and Replace into the live one, so
// decision caches keyed on the generation invalidate a single time and
// no reader ever observes a half-applied mapfile. On a bound map the
// swap is journaled first; a journal error refuses it and the old
// entry set stays live.
func (g *GridMap) Replace(other *GridMap) error {
	other.mu.RLock()
	next := maps.Clone(other.entries)
	other.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.store != nil {
		if err := g.store.Journal(Mutation{Kind: MutGridMapReplace, Gen: g.gen + 1, Entries: next}); err != nil {
			return fmt.Errorf("authz: gridmap mutation not journaled: %w", err)
		}
	}
	g.entries = next
	g.gen++
	return nil
}

// Remove deletes a mapping, panicking on a journal failure; durable
// callers use RemoveChecked.
func (g *GridMap) Remove(dn gridcert.Name) {
	if err := g.RemoveChecked(dn); err != nil {
		panic(err)
	}
}

// RemoveChecked deletes a mapping, journaling first on a bound map.
// Removing an absent DN is a no-op that does not bump the generation
// or touch the journal.
func (g *GridMap) RemoveChecked(dn gridcert.Name) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := dn.String()
	if _, ok := g.entries[key]; !ok {
		return nil
	}
	if g.store != nil {
		if err := g.store.Journal(Mutation{Kind: MutGridMapRemove, Gen: g.gen + 1, DN: key}); err != nil {
			return fmt.Errorf("authz: gridmap mutation not journaled: %w", err)
		}
	}
	delete(g.entries, key)
	g.gen++
	return nil
}

// applyReplayed applies one journaled mutation without re-journaling,
// restoring the journaled generation. Validation matches the mutating
// APIs': replay is not a trust bypass.
func (g *GridMap) applyReplayed(m Mutation) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch m.Kind {
	case MutGridMapAdd:
		if m.DN == "" {
			return errors.New("authz: replayed gridmap entry for the empty DN")
		}
		if !validAccount(m.Account) {
			return fmt.Errorf("authz: replayed gridmap account %q invalid", m.Account)
		}
		g.entries[m.DN] = m.Account
	case MutGridMapReplace:
		next := make(map[string]string, len(m.Entries))
		for dn, acct := range m.Entries {
			if dn == "" || !validAccount(acct) {
				return fmt.Errorf("authz: replayed gridmap entry %q -> %q invalid", dn, acct)
			}
			next[dn] = acct
		}
		g.entries = next
	case MutGridMapRemove:
		delete(g.entries, m.DN)
	default:
		return fmt.Errorf("authz: mutation kind %d is not a gridmap mutation", m.Kind)
	}
	g.gen = m.Gen
	return nil
}

// Generation reports the map revision: it increments on every mutation.
// Cached identity-to-account decisions are only valid for the
// generation they were computed under.
func (g *GridMap) Generation() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.gen
}

// Lookup returns the local account for a grid identity.
func (g *GridMap) Lookup(dn gridcert.Name) (string, bool) { return g.LookupDN(dn.String()) }

// LookupDN is Lookup for an identity already rendered (Name.String).
func (g *GridMap) LookupDN(dn string) (string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	acct, ok := g.entries[dn]
	return acct, ok
}

// Len reports the number of mappings.
func (g *GridMap) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

// Serialize renders the classic grid-mapfile text format:
//
//	"/O=Grid/CN=Alice" alice
//
// sorted by DN for determinism.
func (g *GridMap) Serialize() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	dns := make([]string, 0, len(g.entries))
	for dn := range g.entries {
		dns = append(dns, dn)
	}
	sort.Strings(dns)
	var sb strings.Builder
	for _, dn := range dns {
		fmt.Fprintf(&sb, "%q %s\n", dn, g.entries[dn])
	}
	return sb.String()
}

// ParseGridMap parses the text format produced by Serialize. Lines that
// are empty or start with '#' are skipped.
func ParseGridMap(text string) (*GridMap, error) {
	g := NewGridMap()
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, `"`) {
			return nil, fmt.Errorf("authz: gridmap line %d: DN must be quoted", lineNo)
		}
		// Serialize renders DNs with %q, so quotes, backslashes, and
		// non-ASCII inside the DN arrive escaped; QuotedPrefix walks the
		// escapes to the true closing quote and Unquote reverses them.
		// Hand-written legacy mapfiles were never Go-quoted, though —
		// a raw `\` in a DN is not a valid escape — so lines that fail
		// strict unquoting fall back to the historical scan-to-the-
		// next-quote reading with no escape processing.
		var dnStr, rest string
		if quoted, err := strconv.QuotedPrefix(line); err == nil {
			unquoted, uerr := strconv.Unquote(quoted)
			if uerr != nil {
				return nil, fmt.Errorf("authz: gridmap line %d: bad DN quoting: %w", lineNo, uerr)
			}
			dnStr, rest = unquoted, line[len(quoted):]
		} else {
			end := strings.Index(line[1:], `"`)
			if end < 0 {
				return nil, fmt.Errorf("authz: gridmap line %d: unterminated DN", lineNo)
			}
			dnStr, rest = line[1:1+end], line[2+end:]
		}
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return nil, fmt.Errorf("authz: gridmap line %d: missing account", lineNo)
		}
		account := strings.Fields(rest)[0]
		if !validAccount(account) {
			return nil, fmt.Errorf("authz: gridmap line %d: account %q contains control characters", lineNo, account)
		}
		dn, err := gridcert.ParseName(dnStr)
		if err != nil {
			return nil, fmt.Errorf("authz: gridmap line %d: %w", lineNo, err)
		}
		// The empty DN is the identity an anonymous peer would present;
		// mapping it to an account would be an open door.
		if dn.Empty() {
			return nil, fmt.Errorf("authz: gridmap line %d: empty DN", lineNo)
		}
		g.Add(dn, account)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
