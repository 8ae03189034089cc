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
// Once the replica holds a version, each round asks for a signed DELTA
// from that version first and falls back to the full bundle on any
// refusal — gap, stale, bad signature, malformed — so steady-state
// sync traffic scales with the change rate, not the membership roll.
// With cache warming enabled it also pulls the publisher's hot
// decision keys after an apply and pre-computes those decisions
// through the local pipeline.
type casSyncer struct {
	client   *Client
	replica  *cas.Replica
	pipeline *AuthorizationPipeline // hot-key warming target (nil = off)
	warmN    int                    // hot keys to request per warm (0 = off)
	cfg      CASUpstreamConfig

	// ctx is the syncer's lifetime: every pull runs under it, so close
	// aborts one in flight instead of waiting out casSyncTimeout.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	lastErr  string
	lastOK   string // endpoint of the most recent successful pull
	lastTime time.Time
	syncs    uint64
	failures uint64

	deltaSyncs     uint64
	fullSyncs      uint64
	deltaBytes     uint64
	fullBytes      uint64
	bytesSaved     uint64 // vs shipping the last full bundle again
	deltaFallbacks uint64
	lastFullBytes  uint64

	warmedKeys uint64
	warmedGens [5]uint64 // pipeline generation vector at the last warm
	warmedAt   time.Time
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
	// LastSync is the time of the most recent successful pull.
	LastSync time.Time `json:"last_sync,omitzero"`
	// LastError is the most recent full-round failure ("" when the last
	// round succeeded).
	LastError string `json:"last_error,omitempty"`
	// Syncs and Failures count successful pulls and full rounds where
	// every endpoint failed.
	Syncs    uint64 `json:"syncs"`
	Failures uint64 `json:"failures"`
	// DeltaSyncs and FullSyncs split successful pulls by transfer shape;
	// DeltaFallbacks counts delta attempts that fell back to a full
	// bundle (version gap, verify failure, malformed delta).
	DeltaSyncs     uint64 `json:"delta_syncs"`
	FullSyncs      uint64 `json:"full_syncs"`
	DeltaFallbacks uint64 `json:"delta_fallbacks"`
	// DeltaBytes and FullBytes are cumulative transfer sizes; BytesSaved
	// estimates what delta sync avoided shipping, measured against the
	// most recent full bundle's size.
	DeltaBytes uint64 `json:"delta_bytes"`
	FullBytes  uint64 `json:"full_bytes"`
	BytesSaved uint64 `json:"bytes_saved"`
	// WarmedKeys counts decisions pre-computed from the publisher's hot
	// keys (0 unless WithCacheWarming is active). WarmCurrent reports
	// that the most recent warm ran against the pipeline's current
	// generation vector — i.e. the warmed entries are servable, not
	// invalidated by a policy/gridmap/bundle change since the warm.
	WarmedKeys  uint64 `json:"warmed_keys"`
	WarmCurrent bool   `json:"warm_current,omitempty"`
}

func newCASSyncer(env *Environment, cred *Credential, pipeline *AuthorizationPipeline, cfg CASUpstreamConfig, warmN int) (*casSyncer, error) {
	client, err := env.NewClient(cred, WithTransport(TransportGT3()))
	if err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultCASSyncInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &casSyncer{
		client:   client,
		replica:  pipeline.Replica(),
		pipeline: pipeline,
		warmN:    warmN,
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
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

func (cs *casSyncer) pull(ctx context.Context, endpoint string) error {
	ctx, cancel := context.WithTimeout(ctx, casSyncTimeout)
	defer cancel()
	// Delta first once the replica tracks a version. Every delta failure
	// mode — endpoint refusal (log gap), decode error, verify failure,
	// ApplyDelta's gap/stale/malformed refusals — falls back to the full
	// bundle, with the last good state live throughout.
	if have := cs.replica.Version(); have > 0 {
		if err := cs.pullDelta(ctx, endpoint, have); err == nil {
			cs.maybeWarm(ctx, endpoint)
			return nil
		}
		cs.mu.Lock()
		cs.deltaFallbacks++
		cs.mu.Unlock()
	}
	body, _, err := cs.client.Invoke(ctx, endpoint, cas.SyncHandle, cas.SyncOpBundle, nil)
	if err != nil {
		return err
	}
	b, err := cas.DecodeBundle(body)
	if err != nil {
		return err
	}
	if err := cs.replica.Apply(b); err != nil {
		return err
	}
	cs.mu.Lock()
	cs.fullSyncs++
	cs.fullBytes += uint64(len(body))
	cs.lastFullBytes = uint64(len(body))
	cs.mu.Unlock()
	cs.maybeWarm(ctx, endpoint)
	return nil
}

func (cs *casSyncer) pullDelta(ctx context.Context, endpoint string, have uint64) error {
	body, _, err := cs.client.Invoke(ctx, endpoint, cas.SyncHandle, cas.SyncOpDelta, []byte(strconv.FormatUint(have, 10)))
	if err != nil {
		return err
	}
	d, err := cas.DecodeDelta(body)
	if err != nil {
		return err
	}
	if err := cs.replica.ApplyDelta(d); err != nil {
		return err
	}
	cs.mu.Lock()
	cs.deltaSyncs++
	cs.deltaBytes += uint64(len(body))
	if cs.lastFullBytes > uint64(len(body)) {
		cs.bytesSaved += cs.lastFullBytes - uint64(len(body))
	}
	cs.mu.Unlock()
	return nil
}

// maybeWarm pulls the publisher's hot decision keys and pre-computes
// those decisions through the local pipeline. Purely advisory: any
// failure is ignored (never a sync failure), and re-warming is skipped
// while the pipeline's generation vector is unchanged and the last
// warm is recent, so a quiet upstream does not cost an evaluation
// storm per poll. The vector — not just the replica generation —
// matters: warmed entries are keyed by all five generations, so a
// local policy or gridmap change invalidates them just as surely as a
// bundle apply does, and must trigger a re-warm.
func (cs *casSyncer) maybeWarm(ctx context.Context, endpoint string) {
	if cs.warmN <= 0 || cs.pipeline == nil {
		return
	}
	gens := cs.pipeline.generations()
	cs.mu.Lock()
	fresh := cs.warmedGens == gens && !cs.warmedAt.IsZero() && time.Since(cs.warmedAt) < cs.pipeline.cacheTTL()/2
	cs.mu.Unlock()
	if fresh {
		return
	}
	body, _, err := cs.client.Invoke(ctx, endpoint, cas.SyncHandle, cas.SyncOpHotKeys, []byte(strconv.Itoa(cs.warmN)))
	if err != nil {
		return
	}
	keys, err := cas.DecodeHotKeys(body)
	if err != nil {
		return
	}
	n := cs.pipeline.WarmDecisions(keys)
	cs.mu.Lock()
	cs.warmedKeys += uint64(n)
	cs.warmedGens = gens
	cs.warmedAt = time.Now()
	cs.mu.Unlock()
}

// status snapshots the syncer for the admin surface.
func (cs *casSyncer) status() CASSyncStatus {
	cs.mu.Lock()
	st := CASSyncStatus{
		Configured:     true,
		Endpoints:      cs.cfg.Endpoints,
		LastEndpoint:   cs.lastOK,
		LastSync:       cs.lastTime,
		LastError:      cs.lastErr,
		Syncs:          cs.syncs,
		Failures:       cs.failures,
		DeltaSyncs:     cs.deltaSyncs,
		FullSyncs:      cs.fullSyncs,
		DeltaFallbacks: cs.deltaFallbacks,
		DeltaBytes:     cs.deltaBytes,
		FullBytes:      cs.fullBytes,
		BytesSaved:     cs.bytesSaved,
		WarmedKeys:     cs.warmedKeys,
	}
	if !cs.warmedAt.IsZero() && cs.pipeline != nil {
		st.WarmCurrent = cs.warmedGens == cs.pipeline.generations()
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
