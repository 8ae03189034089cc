package reload

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// applyRecorder is a fail-closed applier over a string: valid contents
// (no "BAD" marker) replace the value, invalid contents leave it.
type applyRecorder struct {
	mu    sync.Mutex
	value string
	calls int
}

func (a *applyRecorder) apply(data []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls++
	if strings.Contains(string(data), "BAD") {
		return errors.New("corrupt contents")
	}
	a.value = string(data)
	return nil
}

func (a *applyRecorder) get() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.value
}

func writeFile(t *testing.T, path, contents string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(contents), 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestReloadAppliesChanges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "conf")
	writeFile(t, path, "v1")

	rec := &applyRecorder{}
	w := New(time.Hour) // ticks never fire; we drive polls by hand
	defer w.Close()
	w.Watch("conf", path, rec.apply)

	if err := w.Reload(); err != nil {
		t.Fatalf("initial reload: %v", err)
	}
	if got := rec.get(); got != "v1" {
		t.Fatalf("value = %q, want v1", got)
	}
	// Unchanged stat: a plain poll is a no-op.
	if err := w.poll(false); err != nil {
		t.Fatalf("no-op poll: %v", err)
	}
	if rec.calls != 1 {
		t.Fatalf("apply ran %d times on unchanged file, want 1", rec.calls)
	}

	// mtime granularity can be coarse; force a visible change via size.
	writeFile(t, path, "v2+grown")
	if err := w.poll(false); err != nil {
		t.Fatalf("poll after change: %v", err)
	}
	if got := rec.get(); got != "v2+grown" {
		t.Fatalf("value = %q, want v2+grown", got)
	}
	st := w.Stats()
	if st.Reloads != 2 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 2 reloads 0 failures", st)
	}
}

func TestReloadFailClosed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "conf")
	writeFile(t, path, "good")

	rec := &applyRecorder{}
	w := New(time.Hour)
	defer w.Close()
	w.Watch("conf", path, rec.apply)
	if err := w.Reload(); err != nil {
		t.Fatal(err)
	}

	// A corrupt intermediate write: old state stays live, the failure
	// counter moves.
	writeFile(t, path, "BAD bytes")
	if err := w.poll(false); err == nil {
		t.Fatal("poll over corrupt file returned nil error")
	}
	if got := rec.get(); got != "good" {
		t.Fatalf("corrupt write replaced state: value = %q", got)
	}
	if st := w.Stats(); st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
	status := w.Status()
	if len(status) != 1 || status[0].Healthy || status[0].Error == "" {
		t.Fatalf("status = %+v, want unhealthy with message", status)
	}

	// Same bad stat: not retried by plain polls...
	calls := rec.calls
	if err := w.poll(false); err != nil {
		t.Fatalf("re-poll of already-tried bad file should be a no-op, got %v", err)
	}
	if rec.calls != calls {
		t.Fatal("bad file re-applied without a new write")
	}
	// ...but a forced Reload does retry, and failure still keeps old state.
	if err := w.Reload(); err == nil {
		t.Fatal("forced reload over corrupt file returned nil")
	}
	if rec.calls != calls+1 {
		t.Fatal("forced reload did not retry")
	}

	// The write settling fixes everything.
	writeFile(t, path, "good again!")
	if err := w.poll(false); err != nil {
		t.Fatalf("poll after fix: %v", err)
	}
	if got := rec.get(); got != "good again!" {
		t.Fatalf("value = %q", got)
	}
	if status := w.Status(); !status[0].Healthy {
		t.Fatalf("status after fix = %+v", status[0])
	}
}

func TestReloadMissingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "absent")
	rec := &applyRecorder{value: "initial"}
	w := New(time.Hour)
	defer w.Close()
	w.Watch("conf", path, rec.apply)

	if err := w.Reload(); err == nil {
		t.Fatal("reload of missing file returned nil")
	}
	if got := rec.get(); got != "initial" {
		t.Fatalf("missing file clobbered state: %q", got)
	}
	// Still missing: plain polls don't spin on it.
	if err := w.poll(false); err != nil {
		t.Fatalf("re-poll of known-missing file: %v", err)
	}
	// The file appearing is a change.
	writeFile(t, path, "now present")
	if err := w.poll(false); err != nil {
		t.Fatalf("poll after file appeared: %v", err)
	}
	if got := rec.get(); got != "now present" {
		t.Fatalf("value = %q", got)
	}
}

func TestWatcherStartClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "conf")
	writeFile(t, path, "v1")
	rec := &applyRecorder{}
	w := New(time.Millisecond)
	w.Watch("conf", path, rec.apply)
	w.Start()
	deadline := time.Now().Add(5 * time.Second)
	for rec.get() != "v1" {
		if time.Now().After(deadline) {
			t.Fatal("started watcher never applied the file")
		}
		time.Sleep(time.Millisecond)
	}
	w.Close()
	w.Close() // idempotent
}
