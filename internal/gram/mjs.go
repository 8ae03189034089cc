package gram

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/gridcert"
	"repro/internal/gss"
	"repro/internal/ogsa"
	"repro/internal/osim"
	"repro/internal/proxy"
)

// MJS is a Managed Job Service: "a Grid service that acts as an interface
// to its associated job, instantiating it and then allowing it to be
// controlled and monitored with standard Grid and Web service
// mechanisms" (§5.3). It authenticates with the GRIM credential of its
// hosting environment and runs in the user's account.
type MJS struct {
	*ogsa.Base

	// lmjfs is the hosting environment: its account, process and GRIM
	// credential are the MJS's own.
	lmjfs  *LMJFS
	owner  gridcert.Name
	job    *Job
	handle string

	mu        sync.Mutex
	delegated *gridcert.Credential
	jobProc   *osim.Process
}

// Handle returns the MJS's service handle.
func (m *MJS) Handle() string { return m.handle }

// Job exposes the managed job.
func (m *MJS) Job() *Job { return m.job }

// Owner returns the grid identity the MJS serves.
func (m *MJS) Owner() gridcert.Name { return m.owner }

// DelegatedCredential returns the credential delegated by the requestor
// (nil until delegation completes).
func (m *MJS) DelegatedCredential() *gridcert.Credential {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delegated
}

// Invoke implements ogsa.Service for monitoring operations.
func (m *MJS) Invoke(call *ogsa.Call) ([]byte, error) {
	if reply, handled, err := m.HandleStandardOp(call); handled {
		return reply, err
	}
	switch call.Op {
	case "GetState":
		return []byte(m.job.State().String()), nil
	case "Cancel":
		if m.job.Terminal() {
			return nil, errors.New("gram: job already terminal")
		}
		if err := m.job.Transition(StateFailed); err != nil {
			return nil, err
		}
		return []byte("cancelled"), nil
	default:
		return nil, fmt.Errorf("gram: MJS has no op %q", call.Op)
	}
}

// Connection is an authenticated requestor↔MJS session (Figure 4 step 7).
type Connection struct {
	mjs  *MJS
	ictx *gss.Context // requestor side
	actx *gss.Context // MJS side
	pol  GRIMPolicy
}

// Connect performs step 7's mutual authentication: "the requestor and MJS
// perform mutual authentication, the MJS using the credentials acquired
// from GRIM. The MJS verifies that the requestor is authorized to
// initiate processes in the local account. The requestor authorizes the
// MJS as having a GRIM credential issued from an appropriate host
// credential and containing a Grid identity matching its own."
func (m *MJS) Connect(requestor *gridcert.Credential, requestorTrust *gridcert.TrustStore) (*Connection, error) {
	return m.ConnectWith(gss.Config{Credential: requestor, TrustStore: requestorTrust})
}

// ConnectWith is Connect with full control over the requestor-side GSS
// options (delegation intent, expected peer, limited-proxy rejection,
// proxy-depth caps). reqCfg.Credential and reqCfg.TrustStore are
// mandatory.
func (m *MJS) ConnectWith(reqCfg gss.Config) (*Connection, error) {
	ictx, actx, err := gss.Establish(
		reqCfg,
		gss.Config{Credential: m.lmjfs.cred, TrustStore: m.lmjfs.res.Trust, RejectLimited: true},
	)
	if err != nil {
		return nil, fmt.Errorf("gram: MJS mutual authentication: %w", err)
	}
	// MJS side: requestor must be the owner this service was created for.
	if !actx.Peer().Identity.Equal(m.owner) {
		return nil, fmt.Errorf("gram: requestor %q is not the owner %q of this MJS",
			actx.Peer().Identity, m.owner)
	}
	// Requestor side: GRIM-credential authorization, over the chain the
	// handshake has just validated against the requestor's trust store.
	pol, err := grimPolicy(ictx.Peer().Info, reqCfg.Credential.Identity())
	if err != nil {
		return nil, err
	}
	if pol.Account != m.lmjfs.account {
		return nil, fmt.Errorf("gram: GRIM policy account %q does not match MJS account %q", pol.Account, m.lmjfs.account)
	}
	return &Connection{mjs: m, ictx: ictx, actx: actx, pol: pol}, nil
}

// Delegate runs the credential delegation of step 7 over the established
// context: the MJS generates a key, the requestor signs a proxy, and the
// delegated credential is installed for the job's own grid operations.
func (c *Connection) Delegate(requestor *gridcert.Credential) error {
	delegatee, req, err := proxy.NewDelegatee(0, false)
	if err != nil {
		return err
	}
	// MJS → requestor: the request travels MJS-side wrapped.
	reqTok, err := c.actx.Wrap(req.Encode())
	if err != nil {
		return err
	}
	reqPlain, err := c.ictx.Unwrap(reqTok)
	if err != nil {
		return err
	}
	reqDec, err := proxy.DecodeDelegationRequest(reqPlain)
	if err != nil {
		return err
	}
	reply, err := proxy.HandleDelegation(requestor, reqDec, proxy.Options{})
	if err != nil {
		return err
	}
	// requestor → MJS.
	repTok, err := c.ictx.Wrap(reply.Encode())
	if err != nil {
		return err
	}
	repPlain, err := c.actx.Unwrap(repTok)
	if err != nil {
		return err
	}
	repDec, err := proxy.DecodeDelegationReply(repPlain)
	if err != nil {
		return err
	}
	cred, err := delegatee.Accept(repDec)
	if err != nil {
		return err
	}
	// The delegated chain must verify at the resource.
	if _, err := c.mjs.lmjfs.res.Trust.Verify(cred.Chain, gridcert.VerifyOptions{}); err != nil {
		return fmt.Errorf("gram: delegated credential: %w", err)
	}
	c.mjs.mu.Lock()
	c.mjs.delegated = cred
	c.mjs.mu.Unlock()
	return nil
}

// Start launches the job: the MJS instantiates the process in the local
// account and drives the state machine to completion.
func (c *Connection) Start() error {
	m := c.mjs
	if m.job.State() != StateUnsubmitted {
		return fmt.Errorf("gram: job already %s", m.job.State())
	}
	if m.job.Description.DelegateCredential && m.DelegatedCredential() == nil {
		return errors.New("gram: job requires a delegated credential; call Delegate first")
	}
	if err := m.job.Transition(StateStageIn); err != nil {
		return err
	}
	if err := m.job.Transition(StatePending); err != nil {
		return err
	}
	// Instantiate the job process in the user's account (unprivileged:
	// the hosting environment already runs there).
	jobProc, err := m.lmjfs.proc.Exec(m.job.Description.Executable, "job-"+m.lmjfs.account, false, m.job.Description.Args...)
	if err != nil {
		m.job.Transition(StateFailed)
		return fmt.Errorf("gram: starting job: %w", err)
	}
	m.mu.Lock()
	m.jobProc = jobProc
	m.mu.Unlock()
	if err := m.job.Transition(StateActive); err != nil {
		return err
	}
	// The simulated application runs to completion immediately.
	jobProc.Exit()
	return m.job.Transition(StateDone)
}
