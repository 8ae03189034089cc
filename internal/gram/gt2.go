package gram

import (
	"fmt"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/osim"
	"repro/internal/soap"
	"repro/internal/xmlsec"
)

// GT2Resource is the GT2 GRAM baseline: a single *privileged* network
// service — the gatekeeper — runs as root, authenticates requests itself,
// and forks job managers into user accounts. It is the design GT3's
// least-privilege architecture replaces (§5.2): every byte of request
// parsing and every authentication step executes with root privileges,
// and a compromise of the gatekeeper yields the host.
type GT2Resource struct {
	host
	gatekeeperProc *osim.Process
	jobs           map[string]*Job // guarded by host.mu
}

// NewGT2Resource boots a GT2 gatekeeper host.
func NewGT2Resource(hostCred *gridcert.Credential, trust *gridcert.TrustStore, gridmap *authz.GridMap) (*GT2Resource, error) {
	r := &GT2Resource{jobs: make(map[string]*Job)}
	r.boot(hostCred, trust, gridmap)
	// THE defining property: the gatekeeper is a privileged network
	// service — root AND listening.
	var err error
	if r.gatekeeperProc, err = r.Sys.Boot("gatekeeper", "root", true); err != nil {
		return nil, err
	}
	return r, nil
}

// GatekeeperProcess exposes the privileged service for compromise
// simulation.
func (r *GT2Resource) GatekeeperProcess() *osim.Process { return r.gatekeeperProc }

// Submit processes a signed job request entirely inside the privileged
// gatekeeper: signature verification, grid-mapfile lookup, and job-manager
// creation all run as root.
func (r *GT2Resource) Submit(env *soap.Envelope) (*Job, error) {
	if env.Action != ActionSubmit {
		return nil, fmt.Errorf("gram: gatekeeper: unknown action %q", env.Action)
	}
	// All of this work is charged as privileged operations (EUID 0):
	// the gatekeeper parses and verifies untrusted network input as root.
	_, account, err := r.admit("gatekeeper", r.gatekeeperProc, env)
	if err != nil {
		return nil, err
	}
	acct, ok := r.Sys.Lookup(account)
	if !ok {
		return nil, fmt.Errorf("gram: gatekeeper: no account %q", account)
	}
	desc, err := DecodeJobDescription(env.Body)
	if err != nil {
		return nil, err
	}
	// Fork a job manager and drop it into the user account.
	jm, err := r.gatekeeperProc.Fork("jobmanager-" + account)
	if err != nil {
		return nil, err
	}
	if err := jm.SetEUID(acct.UID); err != nil {
		return nil, err
	}
	job := NewJob(desc, account, nil)
	if err := job.Transition(StatePending); err != nil {
		return nil, err
	}
	jobProc, err := jm.Exec(desc.Executable, "job-"+account, false, desc.Args...)
	if err != nil {
		job.Transition(StateFailed)
		return job, err
	}
	if err := job.Transition(StateActive); err != nil {
		return nil, err
	}
	jobProc.Exit()
	jm.Exit()
	if err := job.Transition(StateDone); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.seq++
	r.jobs[fmt.Sprintf("gt2-job-%d", r.seq)] = job
	r.stats.JobsAccepted++
	r.mu.Unlock()
	return job, nil
}

// SubmitSigned is a convenience building the signed envelope from a
// description, mirroring the GT3 client.
func SubmitSigned(r *GT2Resource, cred *gridcert.Credential, desc JobDescription) (*Job, error) {
	env := soap.NewEnvelope(ActionSubmit, desc.Encode())
	if err := xmlsec.SignEnvelope(env, cred); err != nil {
		return nil, err
	}
	return r.Submit(env)
}
