package gsi

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDroppedAuditIsVisible: once the decision journal refuses writes, a
// durable server still decides — the audit log drops the event by design
// — but the drop is counted on /metrics, and /healthz turns 503 naming
// the journal's error.
func TestDroppedAuditIsVisible(t *testing.T) {
	authority, err := NewCA("/O=Grid/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvironment(WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(MustParseName("/O=Grid/CN=host svc"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(MustParseName("/O=Grid/CN=Alice"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	server, err := env.NewServer(host, WithDurableState(t.TempDir()), WithMetrics(reg), WithMetricsListener("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	ds := server.DurableState()
	if err := ds.Policy().AddChecked(Rule{
		ID: "alice", Effect: EffectPermit, Subjects: []string{alice.Identity().String()},
		Resources: []string{exchangeResource}, Actions: []string{"*"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ds.GridMap().AddChecked(alice.Identity(), "alice"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	server.mu.Lock()
	healthz := "http://" + server.ctrl.httpSrv.Addr + "/healthz"
	server.mu.Unlock()
	health := func() (int, string) {
		t.Helper()
		resp, err := http.Get(healthz)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := health(); code != http.StatusOK {
		t.Fatalf("healthz before the fault: %d %q", code, body)
	}

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	client, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("x")); err != nil {
		t.Fatalf("exchange with the journal closed: %v", err)
	}
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if want := labeled("gsi_audit_dropped_total", metricID(host)) + " 1\n"; !strings.Contains(scrape.String(), want) {
		t.Fatalf("scrape lacks %q:\n%s", want, scrape.String())
	}
	if code, body := health(); code != http.StatusServiceUnavailable || !strings.HasPrefix(body, "audit journal: ") {
		t.Fatalf("healthz after a dropped decision: %d %q", code, body)
	}
}
