package gridcert

import (
	"crypto/sha256"
	"sync"
	"time"
)

// VerifyCache memoizes successful chain validations so repeated peers
// skip full path validation (signature checks, proxy-profile walk, CRL
// lookups). An entry is reused only while three conditions hold:
//
//   - the trust store is at the same generation the entry was computed
//     under (any root or CRL change invalidates every entry);
//   - the validation time falls inside the chain's joint validity
//     window, so expiry is still enforced exactly;
//   - the verify options (RejectLimited, MaxProxyDepth) match, because
//     they are part of the key.
//
// Only successful validations are cached: failures are cheap to
// recompute and caching them would risk pinning transient state.
// VerifyCache is safe for concurrent use.
type VerifyCache struct {
	mu      sync.Mutex
	max     int
	entries map[verifyCacheKey]*verifyCacheEntry
	hits    uint64
	misses  uint64
}

type verifyCacheKey [sha256.Size]byte

type verifyCacheEntry struct {
	info      *ChainInfo
	gen       uint64
	notBefore time.Time // latest NotBefore over chain + root
	notAfter  time.Time // earliest NotAfter over chain + root
}

// DefaultVerifyCacheSize bounds an Environment's verified-chain cache.
const DefaultVerifyCacheSize = 256

// NewVerifyCache creates a cache holding at most max entries (max <= 0
// selects DefaultVerifyCacheSize).
func NewVerifyCache(max int) *VerifyCache {
	if max <= 0 {
		max = DefaultVerifyCacheSize
	}
	return &VerifyCache{max: max, entries: make(map[verifyCacheKey]*verifyCacheEntry)}
}

// VerifyCacheStats reports cache effectiveness.
type VerifyCacheStats struct {
	Hits   uint64
	Misses uint64
	Len    int
}

// Stats returns a snapshot of the cache counters.
func (vc *VerifyCache) Stats() VerifyCacheStats {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return VerifyCacheStats{Hits: vc.hits, Misses: vc.misses, Len: len(vc.entries)}
}

func cacheKeyOf(encoded []byte, opts VerifyOptions) verifyCacheKey {
	h := sha256.New()
	h.Write(encoded)
	var optBits [10]byte
	if opts.RejectLimited {
		optBits[0] = 1
	}
	depth := opts.MaxProxyDepth
	for i := 0; i < 8; i++ {
		optBits[1+i] = byte(depth >> (8 * i))
	}
	h.Write(optBits[:])
	var key verifyCacheKey
	h.Sum(key[:0])
	return key
}

func (vc *VerifyCache) lookup(key verifyCacheKey, gen uint64, now time.Time) (*ChainInfo, bool) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	e, ok := vc.entries[key]
	if !ok {
		vc.misses++
		return nil, false
	}
	if e.gen != gen || now.Before(e.notBefore) || now.After(e.notAfter) {
		delete(vc.entries, key)
		vc.misses++
		return nil, false
	}
	vc.hits++
	return e.info, true
}

func (vc *VerifyCache) store(key verifyCacheKey, gen uint64, info *ChainInfo, notBefore, notAfter time.Time) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if len(vc.entries) >= vc.max {
		// Evict an arbitrary entry; the cache is a performance aid, not a
		// registry, so any victim is acceptable.
		for k := range vc.entries {
			delete(vc.entries, k)
			break
		}
	}
	vc.entries[key] = &verifyCacheEntry{info: info, gen: gen, notBefore: notBefore, notAfter: notAfter}
}

// chainWindow computes the joint validity window of a chain plus its
// trust anchor: the interval in which every certificate is valid.
func chainWindow(chain []*Certificate, root *Certificate) (notBefore, notAfter time.Time) {
	notBefore, notAfter = root.NotBefore, root.NotAfter
	for _, c := range chain {
		if c.NotBefore.After(notBefore) {
			notBefore = c.NotBefore
		}
		if c.NotAfter.Before(notAfter) {
			notAfter = c.NotAfter
		}
	}
	return notBefore, notAfter
}

// VerifyCached is Verify through a verified-chain cache: encoded is the
// wire encoding of chain (the bytes a handshake already has at hand),
// which keys the cache together with the option set. A nil cache
// degrades to plain Verify. On a hit the full path validation —
// signature checks included — is skipped; soundness rests on the key
// covering the exact chain bytes, the trust-store generation, and the
// validation instant falling inside the chain's joint validity window.
func (ts *TrustStore) VerifyCached(cache *VerifyCache, encoded []byte, chain []*Certificate, opts VerifyOptions) (*ChainInfo, error) {
	if cache == nil || len(encoded) == 0 {
		return ts.Verify(chain, opts)
	}
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	gen := ts.Generation()
	key := cacheKeyOf(encoded, opts)
	if info, ok := cache.lookup(key, gen, now); ok {
		return info, nil
	}
	info, err := ts.Verify(chain, opts)
	if err != nil {
		return nil, err
	}
	notBefore, notAfter := chainWindow(chain, info.Root)
	cache.store(key, gen, info, notBefore, notAfter)
	return info, nil
}
