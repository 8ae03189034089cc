package ogsa

import (
	"strings"
	"testing"

	"repro/internal/gridcert"
)

// refusingBackend fails the test if the admin service reaches it: every
// call below must be refused before the backend runs.
type refusingBackend struct{ t *testing.T }

func (b refusingBackend) reached(op string) ([]byte, error) {
	b.t.Errorf("backend %s reached by a refused call", op)
	return nil, nil
}

func (b refusingBackend) AdminStats() ([]byte, error)        { return b.reached("Stats") }
func (b refusingBackend) AdminMetrics() ([]byte, error)      { return b.reached("Metrics") }
func (b refusingBackend) AdminRetire(string) ([]byte, error) { return b.reached("Retire") }
func (b refusingBackend) AdminDrain() ([]byte, error)        { return b.reached("Drain") }
func (b refusingBackend) AdminReload() ([]byte, error)       { return b.reached("Reload") }
func (b refusingBackend) AdminTraces([]byte) ([]byte, error) { return b.reached("Traces") }
func (b refusingBackend) AdminCASStatus() ([]byte, error)    { return b.reached("CASStatus") }
func (b refusingBackend) AdminCASSync() ([]byte, error)      { return b.reached("CASSync") }
func (b refusingBackend) AdminCompact() ([]byte, error)      { return b.reached("Compact") }

// TestAdminRefusalsAudited pins AdminConfig.Audit's "one per op,
// refusals included" for the refusals the op switch itself makes: an
// op the port type does not have (the retired Transfers among them) and
// Retire without a fingerprint each leave exactly one admin-refused
// record naming the reason.
func TestAdminRefusalsAudited(t *testing.T) {
	admin := gridcert.MustParseName("/O=Grid/CN=Admin")
	for _, tc := range []struct {
		name, op, body, reason string
	}{
		{"retired Transfers op", "Transfers", "", `no op "Transfers"`},
		{"unknown op", "Bogus", "", `no op "Bogus"`},
		{"Retire without a fingerprint", AdminOpRetire, "  \n", "without a fingerprint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			audit := &memAudit{}
			svc, err := NewAdminService(AdminConfig{Backend: refusingBackend{t}, Audit: audit})
			if err != nil {
				t.Fatal(err)
			}
			_, err = svc.Invoke(&Call{
				Service:      AdminHandle,
				Op:           tc.op,
				Body:         []byte(tc.body),
				Caller:       Identity{Name: admin},
				Conversation: true,
			})
			if err == nil {
				t.Fatal("refused op succeeded")
			}
			audit.mu.Lock()
			defer audit.mu.Unlock()
			if len(audit.events) != 1 {
				t.Fatalf("%d audit records, want 1: %q", len(audit.events), audit.events)
			}
			rec := audit.events[0]
			if !strings.HasPrefix(rec, "admin-refused "+admin.String()) || !strings.Contains(rec, tc.reason) {
				t.Fatalf("audit record %q, want admin-refused by %s naming %q", rec, admin, tc.reason)
			}
		})
	}
}
