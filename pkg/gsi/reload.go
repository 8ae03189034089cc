package gsi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/reload"
)

// ReloadConfig names the configuration files a server re-reads while it
// runs, passed to WithReload. Every field is optional but at least one
// must be set. Files use the library's own codecs:
//
//   - TrustRoots: an EncodeChain blob of CA certificates (the whole
//     root set — the file replaces, never appends).
//   - CRLs: an EncodeCRLSet blob; each CRL is applied through the
//     trust store's signature and monotonicity checks, and one already
//     installed is silently skipped.
//   - GridMap: classic grid-mapfile text ("DN" account...).
//   - Policy: the JSON form written by Policy.EncodePolicyJSON. Its
//     combining algorithm must match the live policy's — reload swaps
//     rules, never the algorithm.
//
// Every applier is fail-closed: the file is parsed and validated
// completely before any live state moves, so a corrupt or half-written
// file keeps the previous generation live and bumps reload_failures —
// the server never drops to an empty trust store mid-swap.
type ReloadConfig struct {
	// TrustRoots is the path of the CA root set (EncodeChain format).
	TrustRoots string
	// CRLs is the path of the revocation set (EncodeCRLSet format).
	CRLs string
	// GridMap is the path of the grid-mapfile.
	GridMap string
	// Policy is the path of the local policy (EncodePolicyJSON format).
	Policy string
	// Interval is the polling cadence; <= 0 selects the default
	// (2 seconds).
	Interval time.Duration
}

func (c ReloadConfig) empty() bool {
	return c.TrustRoots == "" && c.CRLs == "" && c.GridMap == "" && c.Policy == ""
}

// ReloadStats is a snapshot of reload activity.
type ReloadStats = reload.Stats

// ReloadSourceStatus reports one watched file's last outcome.
type ReloadSourceStatus = reload.SourceStatus

// Reloader watches a server's configuration files and applies changes
// to the live trust store, gridmap, and policy through their
// generation-counted swap operations — so the decision cache strands
// its entries on the next lookup and the next chain validation walks
// against the new roots and CRLs, with no restart and no explicit flush.
// Obtain one via WithReload; the server starts and stops it with its
// control plane.
type Reloader struct {
	w *reload.Watcher
}

// newReloader wires cfg's files to appliers over the environment's
// trust store and the pipeline's gridmap/policy. pipeline may be nil
// when the server authenticates only; gridmap/policy paths then have
// nothing to apply to and are rejected.
func newReloader(cfg ReloadConfig, env *Environment, pipeline *AuthorizationPipeline) (*Reloader, error) {
	if cfg.empty() {
		return nil, errors.New("gsi: reload configuration names no files")
	}
	if pipeline == nil && (cfg.GridMap != "" || cfg.Policy != "") {
		return nil, errors.New("gsi: gridmap/policy reload requires an authorization pipeline (WithAuthorization)")
	}
	w := reload.New(cfg.Interval)
	if cfg.TrustRoots != "" {
		trust := env.Trust()
		w.Watch("trust-roots", cfg.TrustRoots, func(data []byte) error {
			roots, err := gridcert.DecodeChain(data)
			if err != nil {
				return err
			}
			return trust.ReplaceRoots(roots)
		})
	}
	if cfg.CRLs != "" {
		trust := env.Trust()
		w.Watch("crls", cfg.CRLs, func(data []byte) error {
			crls, err := gridcert.DecodeCRLSet(data)
			if err != nil {
				return err
			}
			// Validate-then-apply across the set: a bad CRL rejects the
			// whole file before any of it lands, matching the other
			// appliers' no-half-apply rule. AddCRL itself only ever
			// tightens (monotonic CRL numbers, issuer must be trusted),
			// and a CRL we already hold is not an error.
			for _, crl := range crls {
				if err := trust.CheckCRL(crl); err != nil && !errors.Is(err, gridcert.ErrCRLStale) {
					return err
				}
			}
			for _, crl := range crls {
				if err := trust.AddCRL(crl); err != nil && !errors.Is(err, gridcert.ErrCRLStale) {
					return err
				}
			}
			return nil
		})
	}
	if cfg.GridMap != "" {
		gm := pipeline.GridMap()
		w.Watch("gridmap", cfg.GridMap, func(data []byte) error {
			parsed, err := authz.ParseGridMap(string(data))
			if err != nil {
				return err
			}
			return gm.Replace(parsed)
		})
	}
	if cfg.Policy != "" {
		pol := pipeline.LocalPolicy()
		w.Watch("policy", cfg.Policy, func(data []byte) error {
			rules, combining, err := authz.DecodePolicyJSON(data)
			if err != nil {
				return err
			}
			if combining != pol.Combining() {
				return fmt.Errorf("gsi: policy file declares combining mode %d but the live policy uses %d; reload swaps rules, not algorithms", combining, pol.Combining())
			}
			return pol.Replace(rules)
		})
	}
	return &Reloader{w: w}, nil
}

// Reload forces a full re-read of every watched file regardless of
// mtime (the admin surface's Reload op). Sources that fail keep their
// previous state live; their errors are joined and returned.
func (r *Reloader) Reload() error { return r.w.Reload() }

// Stats snapshots the reload counters.
func (r *Reloader) Stats() ReloadStats { return r.w.Stats() }

// Status reports each watched file's last outcome.
func (r *Reloader) Status() []ReloadSourceStatus { return r.w.Status() }

func (r *Reloader) start() { r.w.Start() }
func (r *Reloader) close() { r.w.Close() }
