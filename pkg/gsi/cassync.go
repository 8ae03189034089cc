package gsi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cas"
)

// DefaultCASSyncInterval is the bundle pull period when
// CASUpstreamConfig.Interval is zero.
const DefaultCASSyncInterval = 30 * time.Second

// casSyncTimeout bounds one pull attempt against one endpoint.
const casSyncTimeout = 30 * time.Second

// casSyncer is the control-plane goroutine behind WithCASUpstream: it
// pulls the VO's signed policy bundle from the configured endpoints —
// in order, so the second entry is the standby and failover is simply
// "the first pull failed, the next succeeded" — and applies it to the
// pipeline's replica through the fail-closed, generation-counted swap.
//
// Each round is one pull carrying the replica's version; the publisher
// answers with the signed delta from that version when its log covers
// it and with the full bundle otherwise, so steady-state sync traffic
// scales with the change rate, not the membership roll.
type casSyncer struct {
	client  *Client
	replica *cas.Replica
	cfg     CASUpstreamConfig

	// ctx is the syncer's lifetime: every pull runs under it, so close
	// aborts one in flight instead of waiting out casSyncTimeout.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	lastErr   string
	lastOK    string // endpoint of the most recent successful pull
	lastTime  time.Time
	lastPull  time.Duration // that pull, from request to applied
	lastReply string        // and the shape it was answered in
	syncs     uint64
	failures  uint64

	deltaSyncs     uint64
	fullSyncs      uint64
	deltaBytes     uint64
	fullBytes      uint64
	bytesSaved     uint64 // vs shipping the last full bundle again
	deltaFallbacks uint64
	lastFullBytes  uint64
}

// CASSyncStatus is the JSON shape of the gsi.__admin CASStatus op and
// Server.CASSyncStatus.
type CASSyncStatus struct {
	// Configured reports that WithCASUpstream is active.
	Configured bool `json:"configured"`
	// Version and Generation are the replica's applied bundle version
	// and its apply count.
	Version    uint64 `json:"version"`
	Generation uint64 `json:"generation"`
	// Members is the replica's membership count.
	Members int `json:"members"`
	// Endpoints are the configured upstream addresses, in failover order.
	Endpoints []string `json:"endpoints,omitempty"`
	// LastEndpoint is where the most recent successful pull landed.
	LastEndpoint string `json:"last_endpoint,omitempty"`
	// LastSync is the time of the most recent successful pull,
	// LastPullMillis what it took from request to applied, LastReply the
	// shape it was answered in ("full" or "delta").
	LastSync       time.Time `json:"last_sync,omitzero"`
	LastPullMillis float64   `json:"last_pull_ms"`
	LastReply      string    `json:"last_reply,omitempty"`
	// LastError is the most recent full-round failure ("" when the last
	// round succeeded).
	LastError string `json:"last_error,omitempty"`
	// Syncs and Failures count successful pulls and full rounds where
	// every endpoint failed.
	Syncs    uint64 `json:"syncs"`
	Failures uint64 `json:"failures"`
	// DeltaSyncs and FullSyncs split successful pulls by reply shape;
	// DeltaFallbacks counts deltas that failed to decode, verify or
	// apply, each answered by one more pull from version 0.
	DeltaSyncs     uint64 `json:"delta_syncs"`
	FullSyncs      uint64 `json:"full_syncs"`
	DeltaFallbacks uint64 `json:"delta_fallbacks"`
	// DeltaBytes and FullBytes are cumulative transfer sizes; BytesSaved
	// estimates what delta sync avoided shipping, measured against the
	// most recent full bundle's size.
	DeltaBytes uint64 `json:"delta_bytes"`
	FullBytes  uint64 `json:"full_bytes"`
	BytesSaved uint64 `json:"bytes_saved"`
}

func newCASSyncer(env *Environment, cred *Credential, replica *cas.Replica, cfg CASUpstreamConfig) (*casSyncer, error) {
	client, err := env.NewClient(cred, WithTransport(TransportGT3()))
	if err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultCASSyncInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &casSyncer{
		client:  client,
		replica: replica,
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}, nil
}

func (cs *casSyncer) start() {
	go func() {
		defer close(cs.done)
		// First pull immediately: an endpoint that comes up pointing at a
		// live community server should enforce its bundle from the first
		// request, not after one interval of local-only decisions.
		cs.syncOnce()
		t := time.NewTicker(cs.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-cs.ctx.Done():
				return
			case <-t.C:
				cs.syncOnce()
			}
		}
	}()
}

func (cs *casSyncer) close() {
	cs.cancel()
	<-cs.done
}

// syncOnce tries each endpoint in order until one yields a bundle the
// replica accepts. "Up to date" (same version) counts as success.
func (cs *casSyncer) syncOnce() error {
	var errs []error
	for _, ep := range cs.cfg.Endpoints {
		err := cs.pull(cs.ctx, ep)
		if err == nil {
			cs.mu.Lock()
			cs.lastOK = ep
			cs.lastTime = time.Now()
			cs.lastErr = ""
			cs.syncs++
			cs.mu.Unlock()
			return nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", ep, err))
	}
	err := errors.Join(errs...)
	cs.mu.Lock()
	cs.lastErr = err.Error()
	cs.failures++
	cs.mu.Unlock()
	return err
}

// pull runs one sync against one endpoint. Its one fallback: a delta
// that fails to decode, verify or apply — the last good state stays live
// throughout — is answered by asking once more from version 0, which
// the publisher answers with the full bundle.
func (cs *casSyncer) pull(ctx context.Context, endpoint string) error {
	ctx, cancel := context.WithTimeout(ctx, casSyncTimeout)
	defer cancel()
	badDelta, err := cs.pullSince(ctx, endpoint, cs.replica.Version())
	if badDelta {
		cs.mu.Lock()
		cs.deltaFallbacks++
		cs.mu.Unlock()
		_, err = cs.pullSince(ctx, endpoint, 0)
	}
	return err
}

// pullSince asks endpoint for what changed since version have and
// applies the reply. badDelta reports that the failure was the delta's,
// not the endpoint's or a full bundle's.
func (cs *casSyncer) pullSince(ctx context.Context, endpoint string, have uint64) (badDelta bool, err error) {
	start := time.Now()
	body, err := cs.client.Invoke(ctx, endpoint, cas.SyncHandle, cas.SyncOpPull, strconv.AppendUint(nil, have, 10))
	if err != nil {
		return false, err
	}
	size := uint64(len(body))
	delta, bundle, err := cas.DecodeSyncReply(body)
	if err != nil {
		return errors.Is(err, cas.ErrBadDelta), err
	}
	if delta != nil {
		if err := cs.replica.ApplyDelta(delta); err != nil {
			return true, err
		}
	} else if err := cs.replica.ApplyEncoded(bundle); err != nil {
		return false, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.lastPull, cs.lastReply = time.Since(start), "full"
	if delta != nil {
		cs.lastReply = "delta"
		cs.deltaSyncs++
		cs.deltaBytes += size
		if cs.lastFullBytes > size {
			cs.bytesSaved += cs.lastFullBytes - size
		}
		return false, nil
	}
	cs.fullSyncs++
	cs.fullBytes += size
	cs.lastFullBytes = size
	return false, nil
}

// status snapshots the syncer for the admin surface.
func (cs *casSyncer) status() CASSyncStatus {
	cs.mu.Lock()
	st := CASSyncStatus{
		Configured:     true,
		Endpoints:      cs.cfg.Endpoints,
		LastEndpoint:   cs.lastOK,
		LastSync:       cs.lastTime,
		LastPullMillis: float64(cs.lastPull) / float64(time.Millisecond),
		LastReply:      cs.lastReply,
		LastError:      cs.lastErr,
		Syncs:          cs.syncs,
		Failures:       cs.failures,
		DeltaSyncs:     cs.deltaSyncs,
		FullSyncs:      cs.fullSyncs,
		DeltaFallbacks: cs.deltaFallbacks,
		DeltaBytes:     cs.deltaBytes,
		FullBytes:      cs.fullBytes,
		BytesSaved:     cs.bytesSaved,
	}
	cs.mu.Unlock()
	st.Version = cs.replica.Version()
	st.Generation = cs.replica.Generation()
	st.Members = cs.replica.Members()
	return st
}

func (cs *casSyncer) statusJSON() ([]byte, error) {
	return json.MarshalIndent(cs.status(), "", "  ")
}
