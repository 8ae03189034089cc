package gram

import (
	"fmt"
	"sync"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/osim"
	"repro/internal/soap"
	"repro/internal/xmlsec"
)

// host is what the GT2 and GT3 resources have in common, so that the two
// architectures differ only in which process, at which privilege, does
// the work: the simulated machine, its trust roots, its host credential
// and its grid-mapfile.
type host struct {
	Sys   *osim.System
	Trust *gridcert.TrustStore

	hostCred *gridcert.Credential

	mu    sync.Mutex
	seq   int
	stats Stats

	// The parsed view of the grid-mapfile, shared by the machine's
	// processes the way a page cache is. The root-owned file stays the
	// source of truth and the access-control object; only the parse of
	// what every permitted reader would read is kept, with the file
	// version it was made from.
	mapMu      sync.Mutex
	mapVersion uint64
	gridmap    *authz.GridMap
	mapErr     error // set when the file at mapVersion is malformed
}

// boot brings the machine up with the files both architectures need.
func (h *host) boot(hostCred *gridcert.Credential, trust *gridcert.TrustStore, gridmap *authz.GridMap) {
	h.Sys, h.Trust, h.hostCred = osim.NewSystem(), trust, hostCred
	// Host credential: root-owned, NOT world readable — only privileged
	// code may touch it. (The private key lives in process memory; the
	// file models its access control.)
	h.Sys.WriteFileAs(osim.RootUID, HostCredPath, gridcert.EncodeChain(hostCred.Chain), false)
	// grid-mapfile: root-owned, world readable, and parsed once here, so
	// the first request costs what every later one does.
	text := gridmap.Serialize()
	h.mapVersion = h.Sys.WriteFileAs(osim.RootUID, GridMapPath, []byte(text), true).Version
	h.gridmap, h.mapErr = authz.ParseGridMap(text)
	// A job executable for jobs to run.
	h.Sys.InstallProgram(osim.RootUID, JobProgram, false, func(p *osim.Process, args []string) error {
		return nil // the simulated application body
	})
}

// CreateAccount provisions a local account (administrative act).
func (h *host) CreateAccount(name string) error {
	_, err := h.Sys.CreateAccount(name)
	return err
}

// Stats returns a snapshot of activity counters.
func (h *host) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// mapAccount resolves a grid identity to its local account ("" when the
// grid-mapfile has no entry) on behalf of proc. Every call is a read of
// the file by proc, permission-checked and charged by osim, but the
// contents are copied and parsed only when the file has been written
// since the view was made. A malformed file refuses every lookup until
// it is repaired: the last good view is never served.
func (h *host) mapAccount(proc *osim.Process, dn gridcert.Name) (string, error) {
	h.mapMu.Lock()
	defer h.mapMu.Unlock()
	data, version, err := proc.ReadFileIfChanged(GridMapPath, h.mapVersion)
	if err != nil {
		return "", err
	}
	if version != h.mapVersion {
		h.gridmap, h.mapErr = authz.ParseGridMap(string(data))
		h.mapVersion = version
	}
	if h.mapErr != nil {
		return "", h.mapErr
	}
	account, _ := h.gridmap.Lookup(dn)
	return account, nil
}

// admit is how every service on the machine takes a signed request, as
// the process it runs in: the parsing and verification are charged to
// proc (root for the GT2 gatekeeper, unprivileged accounts in GT3 — the
// §5.2 contrast), limited proxies are refused (the GSI rule for job
// initiation), and the signer is mapped through the grid-mapfile read as
// proc. Every hosting environment validates the chain for itself: one
// having admitted it vouches for nothing in another account.
func (h *host) admit(service string, proc *osim.Process, env *soap.Envelope) (*gridcert.ChainInfo, string, error) {
	if err := proc.Work(verifyWork); err != nil {
		return nil, "", err
	}
	info, err := xmlsec.VerifyEnvelope(env, xmlsec.VerifyOptions{TrustStore: h.Trust, RejectLimited: true})
	if err != nil {
		return nil, "", fmt.Errorf("gram: %s: %w", service, err)
	}
	account, err := h.mapAccount(proc, info.Identity)
	if err != nil {
		return nil, "", err
	}
	if account == "" {
		return nil, "", fmt.Errorf("gram: %s: no grid-mapfile entry for %q", service, info.Identity)
	}
	return info, account, nil
}
