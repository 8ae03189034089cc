// Package osim is a simulated operating system substrate: user accounts,
// processes with real/effective UIDs, files with ownership and modes, and
// setuid-execution semantics. It exists so the paper's least-privilege
// claims (§5.2) are *measurable*: every operation performed with root
// privilege is counted, network-facing processes are tracked, and a
// compromise of any process can be simulated to compute its blast radius
// — reproducing the GT2-gatekeeper vs GT3 comparison deterministically
// and portably.
package osim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// RootUID is the superuser id.
const RootUID = 0

// Account is a local user account.
type Account struct {
	Name string
	UID  int
}

// File is a filesystem object with Unix-like ownership and a reduced
// mode: owner always has access; WorldReadable opens reads to everyone.
type File struct {
	Path          string
	OwnerUID      int
	WorldReadable bool
	// Setuid marks an executable that runs with the owner's UID.
	Setuid bool
	Data   []byte
	// Version is the host-wide write sequence number of the file's last
	// write. Every write gets a fresh one, so a reader that kept what it
	// derived from the file at Version v knows it still holds while the
	// file is at v (see ReadFileIfChanged).
	Version uint64
	// Program, if non-nil, is the executable's behaviour (see Exec).
	Program Program
}

// Program is the behaviour of an executable file. It runs inside the
// process created by Exec (with that process's effective UID).
type Program func(p *Process, args []string) error

// Process is a running process.
type Process struct {
	PID  int
	Name string
	// UID is the real uid; EUID the effective uid (differs after a
	// setuid exec).
	UID, EUID int
	// ListensNetwork marks processes that accept remote connections —
	// the attack surface of §5.2.
	ListensNetwork bool

	sys   *System
	alive bool
}

// System is one simulated host.
type System struct {
	mu       sync.Mutex
	accounts map[string]*Account
	byUID    map[int]*Account
	files    map[string]*File
	procs    map[int]*Process
	nextPID  int
	nextUID  int
	writes   uint64 // file writes since boot; the source of File.Version

	// privOps counts operations executed with EUID 0.
	privOps int
}

// NewSystem boots a host with a root account.
func NewSystem() *System {
	s := &System{
		accounts: make(map[string]*Account),
		byUID:    make(map[int]*Account),
		files:    make(map[string]*File),
		procs:    make(map[int]*Process),
		nextPID:  1,
		nextUID:  1000,
	}
	root := &Account{Name: "root", UID: RootUID}
	s.accounts["root"] = root
	s.byUID[RootUID] = root
	return s
}

// Errors.
var (
	ErrNoAccount    = errors.New("osim: no such account")
	ErrPermission   = errors.New("osim: permission denied")
	ErrNoFile       = errors.New("osim: no such file")
	ErrNotExec      = errors.New("osim: file is not executable")
	ErrDeadProcess  = errors.New("osim: process has exited")
	ErrAccountExist = errors.New("osim: account already exists")
)

// CreateAccount adds a local user account.
func (s *System) CreateAccount(name string) (*Account, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrAccountExist, name)
	}
	a := &Account{Name: name, UID: s.nextUID}
	s.nextUID++
	s.accounts[name] = a
	s.byUID[a.UID] = a
	return a, nil
}

// Lookup finds an account by name.
func (s *System) Lookup(name string) (*Account, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.accounts[name]
	return a, ok
}

// WriteFileAs installs a file owned by the given UID (administrative/boot
// operation, not subject to permission checks).
func (s *System) WriteFileAs(ownerUID int, path string, data []byte, worldReadable bool) *File {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	f := &File{Path: path, OwnerUID: ownerUID, WorldReadable: worldReadable, Data: data, Version: s.writes}
	s.files[path] = f
	return f
}

// InstallProgram installs an executable file (boot-time operation).
func (s *System) InstallProgram(ownerUID int, path string, setuid bool, prog Program) *File {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	f := &File{Path: path, OwnerUID: ownerUID, Setuid: setuid, Program: prog, WorldReadable: true, Version: s.writes}
	s.files[path] = f
	return f
}

// Boot starts a process directly under an account (init-style; not
// subject to permission checks).
func (s *System) Boot(name string, account string, listensNetwork bool) (*Process, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.accounts[account]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoAccount, account)
	}
	return s.spawnLocked(name, a.UID, a.UID, listensNetwork), nil
}

func (s *System) spawnLocked(name string, uid, euid int, listens bool) *Process {
	p := &Process{PID: s.nextPID, Name: name, UID: uid, EUID: euid, ListensNetwork: listens, sys: s, alive: true}
	s.nextPID++
	s.procs[p.PID] = p
	return p
}

// chargeLocked records a (possibly privileged) operation by p.
func (s *System) chargeLocked(p *Process) {
	if p.EUID == RootUID {
		s.privOps++
	}
}

// Snapshot summarises the host's privilege posture.
type Snapshot struct {
	// PrivilegedProcesses are live processes with EUID 0.
	PrivilegedProcesses []string
	// PrivilegedNetworkServices are live processes with EUID 0 that
	// accept network connections — the §5.2 "privileged services" count.
	PrivilegedNetworkServices []string
	// SetuidPrograms are the installed setuid-root executables (the
	// "small, tightly constrained" privileged code of GT3).
	SetuidPrograms []string
	PrivilegedOps  int
}

// Audit returns the current privilege posture.
func (s *System) Audit() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	var snap Snapshot
	for _, p := range s.procs {
		if !p.alive || p.EUID != RootUID {
			continue
		}
		snap.PrivilegedProcesses = append(snap.PrivilegedProcesses, p.Name)
		if p.ListensNetwork {
			snap.PrivilegedNetworkServices = append(snap.PrivilegedNetworkServices, p.Name)
		}
	}
	for path, f := range s.files {
		if f.Setuid && f.OwnerUID == RootUID && f.Program != nil {
			snap.SetuidPrograms = append(snap.SetuidPrograms, path)
		}
	}
	sort.Strings(snap.PrivilegedProcesses)
	sort.Strings(snap.PrivilegedNetworkServices)
	sort.Strings(snap.SetuidPrograms)
	snap.PrivilegedOps = s.privOps
	return snap
}

// --- process operations ------------------------------------------------

func (p *Process) check() error {
	if !p.alive {
		return ErrDeadProcess
	}
	return nil
}

// ReadFile reads a file under the process's effective UID.
func (p *Process) ReadFile(path string) ([]byte, error) {
	data, _, err := p.ReadFileIfChanged(path, 0)
	return data, err
}

// ReadFileIfChanged is ReadFile for a reader that kept what it made of
// the file at version have (0: nothing kept): the same liveness and
// permission checks and the same privileged-operation charge on every
// call, but the contents are copied out only when the file's version
// differs from have. It returns the version the file is at; data is nil
// when that equals have.
func (p *Process) ReadFileIfChanged(path string, have uint64) (data []byte, version uint64, err error) {
	if err := p.check(); err != nil {
		return nil, 0, err
	}
	s := p.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeLocked(p)
	f, ok := s.files[path]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoFile, path)
	}
	if p.EUID != RootUID && p.EUID != f.OwnerUID && !f.WorldReadable {
		return nil, 0, fmt.Errorf("%w: read %q as %s", ErrPermission, path, s.byUID[p.EUID].Name)
	}
	if f.Version == have {
		return nil, have, nil
	}
	return append([]byte(nil), f.Data...), f.Version, nil
}

// WriteFile writes a file under the process's effective UID; only the
// owner or root may write, and new files are owned by the writer.
func (p *Process) WriteFile(path string, data []byte, worldReadable bool) error {
	if err := p.check(); err != nil {
		return err
	}
	s := p.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeLocked(p)
	f, ok := s.files[path]
	if !ok {
		f = &File{Path: path, OwnerUID: p.EUID, WorldReadable: worldReadable}
		s.files[path] = f
	} else if p.EUID != RootUID && p.EUID != f.OwnerUID {
		return fmt.Errorf("%w: write %q", ErrPermission, path)
	}
	s.writes++
	f.Data, f.Version = append([]byte(nil), data...), s.writes
	return nil
}

// Exec runs an executable file in a new process. If the file is setuid,
// the new process's effective UID is the file owner's — the only
// privilege-escalation mechanism in the system, mirroring Unix.
func (p *Process) Exec(path, procName string, listensNetwork bool, args ...string) (*Process, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	s := p.sys
	s.mu.Lock()
	f, ok := s.files[path]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoFile, path)
	}
	if f.Program == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotExec, path)
	}
	s.chargeLocked(p)
	euid := p.EUID
	if f.Setuid {
		euid = f.OwnerUID
	}
	child := s.spawnLocked(procName, p.UID, euid, listensNetwork)
	prog := f.Program
	s.mu.Unlock()
	if err := prog(child, args); err != nil {
		child.Exit()
		return nil, err
	}
	return child, nil
}

// SetEUID drops (or, for root, changes) the effective UID. Non-root may
// only set it to their real UID.
func (p *Process) SetEUID(uid int) error {
	if err := p.check(); err != nil {
		return err
	}
	s := p.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeLocked(p)
	if _, ok := s.byUID[uid]; !ok {
		return fmt.Errorf("%w: uid %d", ErrNoAccount, uid)
	}
	if p.EUID != RootUID && uid != p.UID {
		return fmt.Errorf("%w: setuid(%d) as uid %d", ErrPermission, uid, p.EUID)
	}
	if p.EUID == RootUID && uid != RootUID {
		// Dropping root also drops the real uid (setuid(2) semantics for
		// privileged callers).
		p.UID = uid
	}
	p.EUID = uid
	return nil
}

// Work charges n computational steps to the process — used to attribute
// request parsing and cryptographic verification to the privilege level
// they execute at. This is what makes "all request processing runs as
// root" (GT2 gatekeeper) visible in the privileged-operation counters.
func (p *Process) Work(n int) error {
	if err := p.check(); err != nil {
		return err
	}
	s := p.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		s.chargeLocked(p)
	}
	return nil
}

// Fork clones the process (same UIDs).
func (p *Process) Fork(name string) (*Process, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	s := p.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chargeLocked(p)
	return s.spawnLocked(name, p.UID, p.EUID, false), nil
}

// Exit terminates the process.
func (p *Process) Exit() {
	s := p.sys
	s.mu.Lock()
	defer s.mu.Unlock()
	p.alive = false
	delete(s.procs, p.PID)
}

// --- compromise simulation ----------------------------------------------

// BlastRadius describes what an attacker controlling a process could do.
type BlastRadius struct {
	// Process and account compromised.
	Process string
	Account string
	// Root reports full-system compromise (EUID 0).
	Root bool
	// ReadableFiles the attacker can read; WritableFiles they can modify.
	ReadableFiles []string
	WritableFiles []string
	// OtherAccountsExposed lists accounts whose files become readable.
	OtherAccountsExposed []string
}

// Compromise computes the blast radius of taking over a process — the
// §5.2 argument made concrete: compromising a GT2 gatekeeper (root,
// network-facing) yields the whole host, compromising a GT3 MMJFS (plain
// account) yields only that account.
func (s *System) Compromise(p *Process) BlastRadius {
	s.mu.Lock()
	defer s.mu.Unlock()
	br := BlastRadius{
		Process: p.Name,
		Account: s.accountNameLocked(p.EUID),
		Root:    p.EUID == RootUID,
	}
	exposed := map[int]bool{}
	for path, f := range s.files {
		canRead := p.EUID == RootUID || p.EUID == f.OwnerUID || f.WorldReadable
		canWrite := p.EUID == RootUID || p.EUID == f.OwnerUID
		if canRead {
			br.ReadableFiles = append(br.ReadableFiles, path)
			if !f.WorldReadable && f.OwnerUID != p.EUID {
				exposed[f.OwnerUID] = true
			}
		}
		if canWrite {
			br.WritableFiles = append(br.WritableFiles, path)
		}
	}
	for uid := range exposed {
		br.OtherAccountsExposed = append(br.OtherAccountsExposed, s.accountNameLocked(uid))
	}
	sort.Strings(br.ReadableFiles)
	sort.Strings(br.WritableFiles)
	sort.Strings(br.OtherAccountsExposed)
	return br
}

func (s *System) accountNameLocked(uid int) string {
	if a, ok := s.byUID[uid]; ok {
		return a.Name
	}
	return fmt.Sprintf("uid-%d", uid)
}

// String renders a snapshot compactly.
func (snap Snapshot) String() string {
	return fmt.Sprintf("priv-procs=[%s] priv-net-services=[%s] setuid-progs=[%s] priv-ops=%d",
		strings.Join(snap.PrivilegedProcesses, ","),
		strings.Join(snap.PrivilegedNetworkServices, ","),
		strings.Join(snap.SetuidPrograms, ","),
		snap.PrivilegedOps)
}
