// Package reload watches configuration files — trust roots, CRLs,
// grid-mapfiles, local policy — and re-applies them to live state when
// they change on disk, without restarting the server. Detection is
// polling on stat (mtime + size): dependency-free, portable, and
// sufficient at the seconds-scale cadence security configuration moves
// at; no inotify/cgo.
//
// The contract every applier must honor is fail-closed: parse and
// validate the new bytes COMPLETELY before touching live state, and on
// any error leave the previous state untouched. A corrupt or truncated
// intermediate write therefore keeps the old trust/policy generation
// live (and bumps the failure counter) — the server never drops to an
// empty trust store or a half-read policy because an operator's editor
// wrote the file in two chunks.
package reload

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultInterval is the polling cadence when none is configured.
const DefaultInterval = 2 * time.Second

// fileStat is the change-detection key: a source is re-applied when
// either field moves.
type fileStat struct {
	modTime time.Time
	size    int64
}

type source struct {
	name  string
	path  string
	apply func(data []byte) error

	// seen is the stat of the last attempted load (successful or not):
	// a bad write is tried once, not on every tick. A later write moves
	// the stat and triggers a fresh attempt; forced Reload ignores seen.
	seen   fileStat
	tried  bool
	lastOK bool
	errMsg string
}

// Stats is a snapshot of a Watcher's counters.
type Stats struct {
	// Reloads counts successful apply calls (the initial load included).
	Reloads uint64
	// Failures counts apply or read attempts that failed; the previous
	// state stayed live each time.
	Failures uint64
}

// SourceStatus reports one watched file's last outcome.
type SourceStatus struct {
	Name    string
	Path    string
	Healthy bool
	Error   string // last failure message, "" when healthy
}

// Watcher polls a set of files and applies changes. Configure with
// Watch, then Start; Close stops the loop. Safe for concurrent use.
type Watcher struct {
	interval time.Duration

	mu      sync.Mutex
	sources []*source
	started bool
	closed  bool
	stop    chan struct{}
	done    chan struct{}

	reloads  atomic.Uint64
	failures atomic.Uint64
}

// New creates a watcher polling at the given interval (<= 0 selects
// DefaultInterval).
func New(interval time.Duration) *Watcher {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Watcher{
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Watch registers a file. name labels the source in status and events;
// apply receives the full file contents and must be fail-closed (see
// package doc). The file is not read until the first poll or Reload.
func (w *Watcher) Watch(name, path string, apply func(data []byte) error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sources = append(w.sources, &source{name: name, path: path, apply: apply})
}

// Start launches the polling loop: an immediate pass, then one per
// interval. Calling Start twice or after Close is a no-op.
func (w *Watcher) Start() {
	w.mu.Lock()
	if w.started || w.closed {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.mu.Unlock()
	go w.run()
}

func (w *Watcher) run() {
	defer close(w.done)
	w.poll(false)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.poll(false)
		}
	}
}

// Close stops the polling loop and waits for it to exit.
func (w *Watcher) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	started := w.started
	w.mu.Unlock()
	close(w.stop)
	if started {
		<-w.done
	}
}

// Reload forces a full pass over every source, re-reading and
// re-applying each file regardless of whether its stat moved (so a
// fixed-in-place file or a previously failed one is retried now). It
// returns the joined errors of the sources that failed; their previous
// state remains live.
func (w *Watcher) Reload() error {
	return w.poll(true)
}

// poll runs one pass. When force is false only sources whose stat
// moved since the last attempt are loaded.
func (w *Watcher) poll(force bool) error {
	w.mu.Lock()
	sources := append([]*source(nil), w.sources...)
	w.mu.Unlock()
	var errs []error
	for _, s := range sources {
		if err := w.pollOne(s, force); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", s.name, err))
		}
	}
	return errors.Join(errs...)
}

func (w *Watcher) pollOne(s *source, force bool) error {
	fi, statErr := os.Stat(s.path)
	var st fileStat
	if statErr == nil {
		st = fileStat{modTime: fi.ModTime(), size: fi.Size()}
	}
	w.mu.Lock()
	unchanged := s.tried && st == s.seen
	w.mu.Unlock()
	if unchanged && !force {
		return nil
	}

	err := statErr
	if err == nil {
		var data []byte
		if data, err = os.ReadFile(s.path); err == nil {
			err = s.apply(data)
		}
	}

	w.mu.Lock()
	// Re-stat after the load: if the file moved while we read it (a
	// racing writer), leave seen at its pre-load value so the next tick
	// retries with the settled contents.
	if fi2, err2 := os.Stat(s.path); err2 == nil {
		if (fileStat{modTime: fi2.ModTime(), size: fi2.Size()}) == st {
			s.seen, s.tried = st, true
		}
	} else if statErr != nil {
		// Still missing: the absence itself has been attempted.
		s.seen, s.tried = st, true
	}
	s.lastOK = err == nil
	s.errMsg = ""
	if err != nil {
		s.errMsg = err.Error()
	}
	w.mu.Unlock()

	if err != nil {
		w.failures.Add(1)
	} else {
		w.reloads.Add(1)
	}
	return err
}

// Stats snapshots the reload counters.
func (w *Watcher) Stats() Stats {
	return Stats{Reloads: w.reloads.Load(), Failures: w.failures.Load()}
}

// Status reports each source's last outcome, in registration order.
func (w *Watcher) Status() []SourceStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]SourceStatus, 0, len(w.sources))
	for _, s := range w.sources {
		out = append(out, SourceStatus{
			Name:    s.name,
			Path:    s.path,
			Healthy: s.lastOK,
			Error:   s.errMsg,
		})
	}
	return out
}
