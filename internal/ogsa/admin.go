package ogsa

import (
	"errors"
	"fmt"
	"strings"
)

// The administrative port type of the observability plane: a
// container-hosted control surface over the hosting environment's own
// security machinery — session pools, decision caches, credential
// lifecycle, trust/policy reload. Like delegation it lives in the
// reserved gsi.__ namespace: it is infrastructure of the hosting
// environment, never an application service.
//
// Admin calls ride the same server-side pipeline as everything else
// (Figure 3): the container authorizes resource "ogsa:gsi.__admin" with
// the op name as the action BEFORE Invoke runs, so which identities may
// read stats or force a reload is decided by the same local policy that
// gates application traffic. Enabling the surface on a container with
// no authorizer is refused outright — a control plane must never be
// reachable by "anyone who authenticated".
const AdminHandle = "gsi.__admin"

// Admin port type operations. Read ops expose state; the mutating ops
// (Retire, Drain, Reload) act on it — local policy can grant them to
// disjoint identities since the op is the authorization action.
const (
	// AdminOpStats returns a JSON snapshot of pool, cache, credential,
	// reload, and transport statistics. Body: empty.
	AdminOpStats = "Stats"
	// AdminOpMetrics returns the full metrics registry in Prometheus
	// text exposition format. Body: empty.
	AdminOpMetrics = "Metrics"
	// AdminOpRetire retires a credential from the server's session pool:
	// idle sessions under it are discarded and in-flight returns refused.
	// Body: the credential fingerprint in hex (a unique prefix suffices).
	AdminOpRetire = "Retire"
	// AdminOpDrain discards every idle pooled session. Body: empty.
	AdminOpDrain = "Drain"
	// AdminOpReload forces a full re-read of every watched
	// configuration file (trust roots, CRLs, gridmap, policy),
	// regardless of mtime. Body: empty.
	AdminOpReload = "Reload"
	// AdminOpTraces queries the flight recorder: recent spans filtered
	// and ranked server-side (slowest-N, by-op, by-peer-DN,
	// errors-only, or one full trace). Body: a JSON query object
	// (empty body = defaults).
	AdminOpTraces = "Traces"
	// AdminOpCASStatus reports the CAS bundle replication state: applied
	// bundle version and generation, configured upstreams, and pull
	// history. Body: empty.
	AdminOpCASStatus = "CASStatus"
	// AdminOpCASSync forces an immediate bundle pull from the configured
	// upstreams and reports how it went (a failed pull is reported, not
	// an op error — the previous bundle stays live). Body: empty.
	AdminOpCASSync = "CASSync"
	// AdminOpCompact folds the durable journal into a snapshot now,
	// bounding replay time, and reports the journal's shape after. Body:
	// empty.
	AdminOpCompact = "Compact"
)

// AdminBackend is what the admin port type fronts. pkg/gsi implements
// it over the facade's pool, pipeline, credential manager, and reload
// watcher; each method returns the response body verbatim.
type AdminBackend interface {
	// AdminStats returns the JSON statistics snapshot.
	AdminStats() ([]byte, error)
	// AdminMetrics returns the Prometheus text exposition.
	AdminMetrics() ([]byte, error)
	// AdminRetire retires the credential matching the hex fingerprint
	// (prefix) and reports what was discarded.
	AdminRetire(fingerprint string) ([]byte, error)
	// AdminDrain discards idle pooled sessions and reports the count.
	AdminDrain() ([]byte, error)
	// AdminReload forces a configuration reload and reports per-source
	// outcomes; a source failing keeps its previous state live.
	AdminReload() ([]byte, error)
	// AdminTraces answers a flight-recorder query (JSON in, JSON out).
	AdminTraces(query []byte) ([]byte, error)
	// AdminCASStatus reports the CAS replication state as JSON.
	AdminCASStatus() ([]byte, error)
	// AdminCASSync forces a bundle pull and reports the outcome as JSON.
	AdminCASSync() ([]byte, error)
	// AdminCompact compacts the durable journal and reports its shape as
	// JSON.
	AdminCompact() ([]byte, error)
}

// AdminConfig assembles an AdminService.
type AdminConfig struct {
	// Backend fronts the live state. Required.
	Backend AdminBackend
	// Audit receives admin events (one per op, refusals included); nil
	// disables. EnableAdmin inherits the container's sink when unset.
	Audit AuditSink
}

// AdminService implements the admin port type. Every operation requires
// an authenticated caller on an established secure conversation: the
// surface controls live security state (pool membership, trust
// configuration), so per-message signatures — which authenticate a
// request, not a channel — are not accepted, and limited proxies are
// refused just as they are for delegation.
type AdminService struct {
	cfg AdminConfig
}

// NewAdminService builds the port type implementation. Publish it on a
// container under AdminHandle (or use Container.EnableAdmin, which also
// enforces that the container can authorize it).
func NewAdminService(cfg AdminConfig) (*AdminService, error) {
	if cfg.Backend == nil {
		return nil, errors.New("ogsa: admin service requires a backend")
	}
	return &AdminService{cfg: cfg}, nil
}

// EnableAdmin publishes the admin port type under AdminHandle. It
// refuses a container without a ChainAuthorizer: on such a container
// every authenticated caller could command the control plane, which
// fails the gated-by-local-policy requirement.
func (c *Container) EnableAdmin(cfg AdminConfig) (*AdminService, error) {
	if c.cfg.ChainAuthorizer == nil {
		return nil, errors.New("ogsa: admin surface requires an authorizing container (configure an authorization pipeline)")
	}
	if cfg.Audit == nil {
		cfg.Audit = c.cfg.Audit
	}
	svc, err := NewAdminService(cfg)
	if err != nil {
		return nil, err
	}
	c.Publish(AdminHandle, svc)
	return svc, nil
}

func (s *AdminService) audit(event, subject, detail string) {
	if s.cfg.Audit != nil {
		s.cfg.Audit.Record(event, subject, detail)
	}
}

// Invoke implements Service. Authorization already happened in the
// container's route step; what remains here are the channel rules.
func (s *AdminService) Invoke(call *Call) ([]byte, error) {
	if !call.Conversation {
		s.audit("admin-refused", call.Caller.Name.String(), "no secure conversation")
		return nil, errors.New("ogsa: admin operations require an established secure conversation")
	}
	if call.Caller.Anonymous {
		s.audit("admin-refused", "", "anonymous caller")
		return nil, errors.New("ogsa: admin operations require an authenticated caller")
	}
	if call.Caller.Limited {
		s.audit("admin-refused", call.Caller.Name.String(), "limited proxy")
		return nil, errors.New("ogsa: limited proxies cannot administer")
	}
	subject := call.Caller.Name.String()
	switch call.Op {
	case AdminOpStats:
		s.audit("admin-stats", subject, "")
		return s.cfg.Backend.AdminStats()
	case AdminOpMetrics:
		s.audit("admin-metrics", subject, "")
		return s.cfg.Backend.AdminMetrics()
	case AdminOpRetire:
		fp := strings.TrimSpace(string(call.Body))
		if fp == "" {
			s.audit("admin-refused", subject, "Retire without a fingerprint")
			return nil, errors.New("ogsa: Retire requires a credential fingerprint")
		}
		s.audit("admin-retire", subject, fp)
		return s.cfg.Backend.AdminRetire(fp)
	case AdminOpDrain:
		s.audit("admin-drain", subject, "")
		return s.cfg.Backend.AdminDrain()
	case AdminOpReload:
		s.audit("admin-reload", subject, "")
		return s.cfg.Backend.AdminReload()
	case AdminOpTraces:
		s.audit("admin-traces", subject, "")
		return s.cfg.Backend.AdminTraces(call.Body)
	case AdminOpCASStatus:
		s.audit("admin-cas-status", subject, "")
		return s.cfg.Backend.AdminCASStatus()
	case AdminOpCASSync:
		s.audit("admin-cas-sync", subject, "")
		return s.cfg.Backend.AdminCASSync()
	case AdminOpCompact:
		s.audit("admin-compact", subject, "")
		return s.cfg.Backend.AdminCompact()
	default:
		err := fmt.Errorf("ogsa: admin port type has no op %q", call.Op)
		s.audit("admin-refused", subject, err.Error())
		return nil, err
	}
}
