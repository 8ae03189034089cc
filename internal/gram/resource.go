package gram

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
	"repro/internal/ogsa"
	"repro/internal/osim"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/wire"
	"repro/internal/xmlsec"
)

// Well-known paths on the simulated resource.
const (
	HostCredPath = "/etc/grid-security/hostcred"
	GridMapPath  = "/etc/grid-security/grid-mapfile"
	StarterPath  = "/usr/sbin/gram-setuid-starter"
	GRIMPath     = "/usr/sbin/grim"
	FactoryAcct  = "globus" // the non-privileged account MMJFS runs in
	JobProgram   = "/bin/sim-app"
	ActionSubmit = "gram/submit"
)

// verifyWork is the accounted cost of parsing and verifying one signed
// request (envelope parse, chain validation, signature check). GT2
// executes it at root; GT3 in unprivileged accounts — the §5.2 contrast.
const verifyWork = 3

// Stats counts GRAM activity for experiment E4.
type Stats struct {
	ColdStarts   int // submissions that had to create an LMJFS
	WarmHits     int // submissions routed to an existing LMJFS
	GRIMRuns     int
	StarterRuns  int
	JobsAccepted int
}

// Resource is a GT3 GRAM resource: a simulated host running the Proxy
// Router and MMJFS in a non-privileged account, with the Setuid Starter
// and GRIM as the only privileged code (§5.2: "All privileged code is
// contained in two small, tightly constrained setuid programs").
type Resource struct {
	host

	routerProc *osim.Process
	mmjfsProc  *osim.Process

	starting sync.Map // account → *sync.Mutex, held across an LMJFS cold start

	// guarded by host.mu
	lmjfs map[string]*LMJFS // registered, keyed by local account
	mjs   map[string]*MJS   // keyed by MJS handle
	grim  map[string]*LMJFS // awaiting their GRIM credential, keyed by GRIM invocation id
}

// NewResource boots a GT3 GRAM resource. hostCred is the host identity
// credential (conceptually root-owned on disk), trust the CA roots the
// resource accepts, gridmap the DN→account mapping.
func NewResource(hostCred *gridcert.Credential, trust *gridcert.TrustStore, gridmap *authz.GridMap) (*Resource, error) {
	r := &Resource{lmjfs: make(map[string]*LMJFS), mjs: make(map[string]*MJS), grim: make(map[string]*LMJFS)}
	r.boot(hostCred, trust, gridmap)
	if _, err := r.Sys.CreateAccount(FactoryAcct); err != nil {
		return nil, err
	}
	// The two privileged programs.
	r.Sys.InstallProgram(osim.RootUID, StarterPath, true, r.starterProgram)
	r.Sys.InstallProgram(osim.RootUID, GRIMPath, true, r.grimProgram)

	// Boot the non-privileged network services: Proxy Router and MMJFS.
	var err error
	if r.routerProc, err = r.Sys.Boot("proxy-router", FactoryAcct, true); err != nil {
		return nil, err
	}
	if r.mmjfsProc, err = r.Sys.Boot("mmjfs", FactoryAcct, true); err != nil {
		return nil, err
	}
	return r, nil
}

// HostIdentity returns the resource's host DN.
func (r *Resource) HostIdentity() gridcert.Name { return r.hostCred.Leaf().Subject }

// --- privileged programs -------------------------------------------------

// starterProgram is the Setuid Starter (§5.3 step 4): "a privileged
// program whose sole function is to start a preconfigured LMJFS for a
// user." It immediately drops privileges into the target account.
func (r *Resource) starterProgram(p *osim.Process, args []string) error {
	if len(args) != 1 {
		return errors.New("gram: setuid-starter: want exactly one argument (account)")
	}
	account := args[0]
	acct, ok := r.Sys.Lookup(account)
	if !ok {
		return fmt.Errorf("gram: setuid-starter: no account %q", account)
	}
	// The ONLY privileged action: become the user.
	return p.SetEUID(acct.UID)
}

// grimProgram is the Grid Resource Identity Mapper (§5.3 step 5): a
// privileged program that "accesses the local host credentials and from
// them generates a set of GSI proxy credentials for the LMJFS", embedding
// the user's grid identity and local account, then drops privileges.
func (r *Resource) grimProgram(p *osim.Process, args []string) error {
	if len(args) != 1 {
		return errors.New("gram: grim: want exactly one argument (invocation id)")
	}
	r.mu.Lock()
	l := r.grim[args[0]]
	r.mu.Unlock()
	if l == nil {
		return errors.New("gram: grim: no LMJFS awaits this invocation")
	}
	// Privileged read of the host credential (fails unless setuid worked).
	chainBytes, err := p.ReadFile(HostCredPath)
	if err != nil {
		return fmt.Errorf("gram: grim: reading host credential: %w", err)
	}
	if _, err := gridcert.DecodeChain(chainBytes); err != nil {
		return fmt.Errorf("gram: grim: host credential corrupt: %w", err)
	}
	// Drop privileges before any further work.
	acct, ok := r.Sys.Lookup(l.account)
	if !ok {
		return fmt.Errorf("gram: grim: no account %q", l.account)
	}
	if err := p.SetEUID(acct.UID); err != nil {
		return err
	}
	// Issue the GRIM proxy over a fresh key.
	key, err := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		return err
	}
	pol := GRIMPolicy{User: l.user, Account: l.account, Host: r.hostCred.Leaf().Subject}
	cert, err := proxy.Issue(r.hostCred, key.Public(), proxy.Options{
		Extensions: []gridcert.Extension{{ID: gridcert.ExtGRIMIdentity, Value: pol.Encode()}},
	})
	if err != nil {
		return fmt.Errorf("gram: grim: issuing credential: %w", err)
	}
	l.cred, err = gridcert.NewCredential(append([]*gridcert.Certificate{cert}, r.hostCred.Chain...), key)
	return err
}

// runGRIM invokes the GRIM setuid program from a starting LMJFS's own
// process. The child finds the LMJFS to credential by the invocation id
// it is handed, so concurrent cold starts cannot take each other's result.
func (r *Resource) runGRIM(l *LMJFS) error {
	r.mu.Lock()
	r.stats.GRIMRuns++
	id := strconv.Itoa(r.stats.GRIMRuns)
	r.grim[id] = l
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.grim, id)
		r.mu.Unlock()
	}()
	child, err := l.proc.Exec(GRIMPath, "grim", false, id)
	if err != nil {
		return err
	}
	child.Exit()
	if l.cred == nil {
		return errors.New("gram: grim: exited without issuing a credential")
	}
	return nil
}

// --- Proxy Router ---------------------------------------------------------

// Deliver is the Proxy Router (§5.3 step 2): it "routes incoming requests
// from a user to either that user's LMJFS, if present, or the MMJFS".
// Routing uses the *claimed* signer and the world-readable grid-mapfile;
// all verification happens downstream.
func (r *Resource) Deliver(env *soap.Envelope) (*soap.Envelope, error) {
	if env.Action != ActionSubmit {
		return nil, fmt.Errorf("gram: router: unknown action %q", env.Action)
	}
	claimed, err := xmlsec.PeekSigner(env)
	if err != nil {
		return nil, fmt.Errorf("gram: router: %w", err)
	}
	// The router resolves DN→account from the grid-mapfile (an
	// unprivileged read: the file is world readable).
	account, err := r.mapAccount(r.routerProc, claimed)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	l := r.lmjfs[account]
	if l != nil {
		r.stats.WarmHits++
	}
	r.mu.Unlock()
	if l != nil {
		return l.handleSubmit(env)
	}
	return r.handleMMJFS(env)
}

// handleMMJFS is steps 3–5: verify the signature, map to an account,
// start an LMJFS via the Setuid Starter, and forward the request.
func (r *Resource) handleMMJFS(env *soap.Envelope) (*soap.Envelope, error) {
	// Step 3: "The MMJFS verifies the signature on the request and
	// establishes the identity of the requestor", then determines the
	// local account — all as the unprivileged MMJFS process.
	info, account, err := r.admit("mmjfs", r.mmjfsProc, env)
	if err != nil {
		return nil, err
	}
	l, err := r.startLMJFS(account, info.Identity)
	if err != nil {
		return nil, err
	}
	// Step 6 happens inside the LMJFS.
	return l.handleSubmit(env)
}

// startLMJFS is steps 4–5 for an account with no LMJFS yet. Concurrent
// first requests for one account wait on its gate and share the LMJFS
// the first of them starts; an LMJFS is registered, and so reachable
// from the router, only once it holds its GRIM credential.
func (r *Resource) startLMJFS(account string, user gridcert.Name) (*LMJFS, error) {
	gate, _ := r.starting.LoadOrStore(account, new(sync.Mutex))
	gate.(*sync.Mutex).Lock()
	defer gate.(*sync.Mutex).Unlock()
	r.mu.Lock()
	l := r.lmjfs[account]
	if l == nil {
		r.stats.ColdStarts++
		r.stats.StarterRuns++
	}
	r.mu.Unlock()
	if l != nil {
		return l, nil
	}
	// Step 4: invoke the Setuid Starter to start an LMJFS in the account.
	lmjfsProc, err := r.mmjfsProc.Exec(StarterPath, "lmjfs-"+account, true, account)
	if err != nil {
		return nil, fmt.Errorf("gram: setuid-starter: %w", err)
	}
	// Step 5: the LMJFS acquires GRIM credentials and registers.
	l = &LMJFS{res: r, account: account, user: user, proc: lmjfsProc}
	if err := r.runGRIM(l); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.lmjfs[account] = l
	r.mu.Unlock()
	return l, nil
}

// LookupMJS resolves an MJS handle (the in-memory analog of connecting to
// the MJS's network endpoint).
func (r *Resource) LookupMJS(handle string) (*MJS, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.mjs[handle]
	return m, ok
}

// submitReply is the wire form of a successful submission.
type submitReply struct {
	MJSHandle string
	Account   string
}

func (s submitReply) encode() []byte {
	return wire.NewEncoder().Str(s.MJSHandle).Str(s.Account).Finish()
}

func decodeSubmitReply(b []byte) (submitReply, error) {
	d := wire.NewDecoder(b)
	s := submitReply{MJSHandle: d.Str(), Account: d.Str()}
	if err := d.Done(); err != nil {
		return submitReply{}, err
	}
	return s, nil
}

// LMJFS is a Local Managed Job Factory Service: one per active account,
// running *in* that account, created by the Setuid Starter and holding a
// GRIM credential.
type LMJFS struct {
	res     *Resource
	account string
	user    gridcert.Name // the grid identity it was started for; GRIM embeds it
	proc    *osim.Process
	cred    *gridcert.Credential
}

// handleSubmit is step 6: "The LMJFS verifies the signature on the
// request … and verifies the requestor is authorized to access the local
// user account in which the LMJFS is running", then creates an MJS. The
// work runs in the user's own account.
func (l *LMJFS) handleSubmit(env *soap.Envelope) (*soap.Envelope, error) {
	r := l.res
	info, account, err := r.admit("lmjfs", l.proc, env)
	if err != nil {
		return nil, err
	}
	if account != l.account {
		return nil, fmt.Errorf("gram: lmjfs: %q is not authorized for account %q", info.Identity, l.account)
	}
	desc, err := DecodeJobDescription(env.Body)
	if err != nil {
		return nil, err
	}
	// Create the MJS in this hosting environment.
	base := ogsa.NewBase()
	m := &MJS{Base: base, lmjfs: l, owner: info.Identity, job: NewJob(desc, l.account, base.Data)}
	r.mu.Lock()
	r.seq++
	m.handle = fmt.Sprintf("mjs://%s/%s/%d", r.hostCred.Leaf().Subject.CommonName(), l.account, r.seq)
	r.stats.JobsAccepted++
	r.mjs[m.handle] = m
	r.mu.Unlock()
	return env.Reply(submitReply{MJSHandle: m.handle, Account: l.account}.encode()), nil
}
