package cas

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/ogsa"
	"repro/internal/wire"
)

// SyncHandle is the reserved service handle the community server
// publishes its bundle feed under. Like gsi.__admin it lives in the
// gsi.__ namespace: infrastructure of the trust plane, never an
// application service. Authorization for it rides the container's
// normal route step (resource "ogsa:gsi.__cas.sync", op as the action),
// so a VO can restrict which resource servers may pull its policy.
const SyncHandle = "gsi.__cas.sync"

// SyncOpPull is the sync port type's one operation. Body: the version
// the replica holds, in decimal (0 = none yet). The reply is one tag
// byte followed by a signed document (DecodeSyncReply): the Delta from
// that version to the server's when the delta log covers it — no ops
// when the replica is current — and the full Bundle otherwise (version
// 0, a log gap, or a replica ahead of this server).
const SyncOpPull = "Pull"

// Pull reply tags.
const (
	syncTagDelta byte = 1
	syncTagFull  byte = 2
)

// ErrBadDelta marks a Pull reply tagged as a delta whose payload does
// not decode. Like a delta that fails to verify or apply, it is the
// puller's cue to ask once more from version 0.
var ErrBadDelta = errors.New("cas: malformed delta reply")

// encodeSyncReply frames a signed document as a Pull reply: the tag,
// then exactly the document's Encode() bytes.
func encodeSyncReply(tag byte, tbs, sig []byte) []byte {
	return wire.NewEncoder().Reset(make([]byte, 0, 9+len(tbs)+len(sig))).U8(tag).Bytes(tbs).Bytes(sig).Finish()
}

// DecodeSyncReply parses a Pull reply (signatures not verified): exactly
// one of delta and bundle is non-nil on success. The document is decoded
// from a view of data, not a copy.
func DecodeSyncReply(data []byte) (delta *Delta, bundle *Bundle, err error) {
	if len(data) == 0 {
		return nil, nil, errors.New("cas: empty sync reply")
	}
	switch data[0] {
	case syncTagDelta:
		if delta, err = DecodeDelta(data[1:]); err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrBadDelta, err)
		}
		return delta, nil, nil
	case syncTagFull:
		bundle, err = DecodeBundle(data[1:])
		return nil, bundle, err
	default:
		return nil, nil, fmt.Errorf("cas: unknown sync reply tag %d", data[0])
	}
}

// SyncService serves a CAS server's signed bundles to pulling replicas.
// Bundles carry their own signature, so the transport adds
// authenticity only in depth — but the service still requires an
// authenticated caller on a secure conversation: which resource servers
// may read the VO's full membership roll is itself policy.
type SyncService struct {
	*ogsa.Base
	server *Server
	audit  ogsa.AuditSink
}

// NewSyncService fronts server's bundle feed.
func NewSyncService(server *Server, audit ogsa.AuditSink) *SyncService {
	return &SyncService{Base: ogsa.NewBase(), server: server, audit: audit}
}

var _ ogsa.Service = (*SyncService)(nil)

func (s *SyncService) record(event, subject, detail string) {
	if s.audit != nil {
		s.audit.Record(event, subject, detail)
	}
}

// Invoke implements ogsa.Service. Authorization already happened in the
// container's route step; the channel rules mirror the admin surface's.
func (s *SyncService) Invoke(call *ogsa.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	if !call.Conversation {
		s.record("cas-sync-refused", call.Caller.Name.String(), "no secure conversation")
		return nil, errors.New("cas: sync operations require an established secure conversation")
	}
	if call.Caller.Anonymous {
		s.record("cas-sync-refused", "", "anonymous caller")
		return nil, errors.New("cas: sync operations require an authenticated caller")
	}
	if call.Op != SyncOpPull {
		return nil, fmt.Errorf("cas: sync port type has no op %q", call.Op)
	}
	have, err := strconv.ParseUint(string(call.Body), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cas: pull wants the replica's version in decimal: %w", err)
	}
	subject := call.Caller.Name.String()
	if have > 0 {
		if d, err := s.server.ExportDelta(have); err == nil {
			s.record("cas-sync-delta", subject, fmt.Sprintf("versions %d-%d, %d ops", d.FromVersion, d.ToVersion, len(d.Ops)))
			return encodeSyncReply(syncTagDelta, d.tbs(), d.Signature), nil
		}
	}
	version, tbs, sig, err := s.server.exportSigned()
	if err != nil {
		s.record("cas-sync-error", subject, err.Error())
		return nil, err
	}
	s.record("cas-sync-bundle", subject, fmt.Sprintf("version %d for a replica at %d", version, have))
	return encodeSyncReply(syncTagFull, tbs, sig), nil
}
