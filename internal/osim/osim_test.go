package osim

import (
	"errors"
	"testing"
)

func TestAccounts(t *testing.T) {
	s := NewSystem()
	a, err := s.CreateAccount("alice")
	if err != nil {
		t.Fatal(err)
	}
	if a.UID == RootUID {
		t.Fatal("new account got root uid")
	}
	if _, err := s.CreateAccount("alice"); !errors.Is(err, ErrAccountExist) {
		t.Fatalf("duplicate account: %v", err)
	}
	if got, ok := s.Lookup("alice"); !ok || got.UID != a.UID {
		t.Fatal("Lookup failed")
	}
}

func TestFilePermissions(t *testing.T) {
	s := NewSystem()
	alice, _ := s.CreateAccount("alice")
	s.CreateAccount("bob")
	s.WriteFileAs(alice.UID, "/home/alice/secret", []byte("s3cret"), false)
	s.WriteFileAs(RootUID, "/etc/hostcred", []byte("hostkey"), false)
	s.WriteFileAs(RootUID, "/etc/gridmap", []byte("map"), true)

	pa, _ := s.Boot("shell-a", "alice", false)
	pb, _ := s.Boot("shell-b", "bob", false)
	proot, _ := s.Boot("initd", "root", false)

	if _, err := pa.ReadFile("/home/alice/secret"); err != nil {
		t.Fatalf("owner read: %v", err)
	}
	if _, err := pb.ReadFile("/home/alice/secret"); !errors.Is(err, ErrPermission) {
		t.Fatalf("cross-account read: %v", err)
	}
	if _, err := pb.ReadFile("/etc/gridmap"); err != nil {
		t.Fatalf("world-readable read: %v", err)
	}
	if _, err := pb.ReadFile("/etc/hostcred"); err == nil {
		t.Fatal("non-root read host credential")
	}
	if _, err := proot.ReadFile("/home/alice/secret"); err != nil {
		t.Fatalf("root read: %v", err)
	}
	if _, err := pa.ReadFile("/nonexistent"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("missing file: %v", err)
	}
	// Write rules.
	if err := pb.WriteFile("/etc/gridmap", []byte("evil"), true); !errors.Is(err, ErrPermission) {
		t.Fatalf("non-owner write: %v", err)
	}
	if err := pa.WriteFile("/home/alice/new", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.ReadFile("/home/alice/new"); err == nil {
		t.Fatal("new file not owned by writer")
	}
}

func TestSetuidExec(t *testing.T) {
	s := NewSystem()
	alice, _ := s.CreateAccount("alice")
	var sawEUID int
	s.InstallProgram(RootUID, "/usr/bin/grim", true, func(p *Process, args []string) error {
		sawEUID = p.EUID
		// Privileged program can read root-owned files.
		_, err := p.ReadFile("/etc/hostcred")
		return err
	})
	s.InstallProgram(RootUID, "/usr/bin/plain", false, func(p *Process, args []string) error {
		sawEUID = p.EUID
		return nil
	})
	s.WriteFileAs(RootUID, "/etc/hostcred", []byte("hk"), false)

	pa, _ := s.Boot("shell", "alice", false)
	if _, err := pa.Exec("/usr/bin/grim", "grim", false); err != nil {
		t.Fatalf("setuid exec: %v", err)
	}
	if sawEUID != RootUID {
		t.Fatalf("setuid program ran with euid %d", sawEUID)
	}
	if _, err := pa.Exec("/usr/bin/plain", "plain", false); err != nil {
		t.Fatal(err)
	}
	if sawEUID != alice.UID {
		t.Fatalf("non-setuid program ran with euid %d, want %d", sawEUID, alice.UID)
	}
	if _, err := pa.Exec("/etc/hostcred", "x", false); !errors.Is(err, ErrNotExec) {
		t.Fatalf("exec of data file: %v", err)
	}
}

func TestSetEUIDRules(t *testing.T) {
	s := NewSystem()
	alice, _ := s.CreateAccount("alice")
	bob, _ := s.CreateAccount("bob")
	proot, _ := s.Boot("starter", "root", false)
	// Root can drop to any account — and then cannot climb back.
	if err := proot.SetEUID(alice.UID); err != nil {
		t.Fatal(err)
	}
	if err := proot.SetEUID(RootUID); !errors.Is(err, ErrPermission) {
		t.Fatalf("regained root: %v", err)
	}
	if err := proot.SetEUID(bob.UID); !errors.Is(err, ErrPermission) {
		t.Fatalf("lateral move: %v", err)
	}
	// Unknown uid.
	pa, _ := s.Boot("shell", "alice", false)
	if err := pa.SetEUID(99999); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("unknown uid: %v", err)
	}
}

func TestPrivilegedOpAccounting(t *testing.T) {
	s := NewSystem()
	s.CreateAccount("alice")
	s.WriteFileAs(RootUID, "/etc/f", []byte("x"), true)
	pa, _ := s.Boot("shell", "alice", false)
	proot, _ := s.Boot("rootd", "root", false)

	base := s.Audit().PrivilegedOps
	pa.ReadFile("/etc/f") // unprivileged: not counted
	if s.Audit().PrivilegedOps != base {
		t.Fatal("unprivileged op counted as privileged")
	}
	proot.ReadFile("/etc/f")
	proot.ReadFile("/etc/f")
	if got := s.Audit().PrivilegedOps - base; got != 2 {
		t.Fatalf("privileged ops = %d", got)
	}
}

func TestAuditSnapshot(t *testing.T) {
	s := NewSystem()
	s.CreateAccount("globus")
	s.InstallProgram(RootUID, "/usr/bin/setuid-starter", true, func(p *Process, args []string) error { return nil })
	s.InstallProgram(RootUID, "/usr/bin/grim", true, func(p *Process, args []string) error { return nil })
	s.InstallProgram(RootUID, "/usr/bin/tool", false, func(p *Process, args []string) error { return nil })

	gk, _ := s.Boot("gatekeeper", "root", true)
	s.Boot("mmjfs", "globus", true)

	snap := s.Audit()
	if len(snap.PrivilegedNetworkServices) != 1 || snap.PrivilegedNetworkServices[0] != "gatekeeper" {
		t.Fatalf("priv net services = %v", snap.PrivilegedNetworkServices)
	}
	if len(snap.SetuidPrograms) != 2 {
		t.Fatalf("setuid programs = %v", snap.SetuidPrograms)
	}
	gk.Exit()
	snap = s.Audit()
	if len(snap.PrivilegedNetworkServices) != 0 {
		t.Fatal("dead process still audited")
	}
}

func TestCompromiseBlastRadius(t *testing.T) {
	s := NewSystem()
	alice, _ := s.CreateAccount("alice")
	globus, _ := s.CreateAccount("globus")
	_ = globus
	s.WriteFileAs(RootUID, "/etc/hostcred", []byte("hostkey"), false)
	s.WriteFileAs(alice.UID, "/home/alice/data", []byte("d"), false)

	// Root-running network service: total compromise.
	gk, _ := s.Boot("gatekeeper", "root", true)
	br := s.Compromise(gk)
	if !br.Root {
		t.Fatal("root process not flagged as root compromise")
	}
	if !contains(br.ReadableFiles, "/etc/hostcred") || !contains(br.WritableFiles, "/home/alice/data") {
		t.Fatalf("root blast radius incomplete: %+v", br)
	}

	// Unprivileged service: only its own account.
	mm, _ := s.Boot("mmjfs", "globus", true)
	br = s.Compromise(mm)
	if br.Root {
		t.Fatal("unprivileged process flagged root")
	}
	if contains(br.ReadableFiles, "/etc/hostcred") || contains(br.ReadableFiles, "/home/alice/data") {
		t.Fatalf("unprivileged blast radius leaked: %+v", br)
	}
	if len(br.OtherAccountsExposed) != 0 {
		t.Fatalf("exposed accounts: %v", br.OtherAccountsExposed)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func TestDeadProcessOperations(t *testing.T) {
	s := NewSystem()
	s.CreateAccount("alice")
	p, _ := s.Boot("shell", "alice", false)
	p.Exit()
	if _, err := p.ReadFile("/x"); !errors.Is(err, ErrDeadProcess) {
		t.Fatalf("dead read: %v", err)
	}
	if _, err := p.Fork("child"); !errors.Is(err, ErrDeadProcess) {
		t.Fatalf("dead fork: %v", err)
	}
}

func TestForkInheritsUIDs(t *testing.T) {
	s := NewSystem()
	alice, _ := s.CreateAccount("alice")
	p, _ := s.Boot("shell", "alice", false)
	c, err := p.Fork("worker")
	if err != nil {
		t.Fatal(err)
	}
	if c.UID != alice.UID || c.EUID != alice.UID {
		t.Fatalf("child uids = %d/%d", c.UID, c.EUID)
	}
}

func TestBootUnknownAccount(t *testing.T) {
	s := NewSystem()
	if _, err := s.Boot("x", "ghost", false); !errors.Is(err, ErrNoAccount) {
		t.Fatalf("boot unknown account: %v", err)
	}
}

// TestReadFileIfChanged: the conditional read is the same access as
// ReadFile — same liveness and permission checks, same charge — and
// differs only in handing back no bytes for a version the reader has.
func TestReadFileIfChanged(t *testing.T) {
	s := NewSystem()
	s.CreateAccount("alice")
	v1 := s.WriteFileAs(RootUID, "/etc/f", []byte("one"), true).Version
	pa, _ := s.Boot("shell", "alice", false)
	proot, _ := s.Boot("rootd", "root", false)

	data, v, err := pa.ReadFileIfChanged("/etc/f", 0)
	if err != nil || string(data) != "one" || v != v1 || v == 0 {
		t.Fatalf("first read: %q v%d (want v%d) %v", data, v, v1, err)
	}
	if data, v, err = pa.ReadFileIfChanged("/etc/f", v1); err != nil || data != nil || v != v1 {
		t.Fatalf("unchanged file: %q v%d %v", data, v, err)
	}
	if n := testing.AllocsPerRun(100, func() { pa.ReadFileIfChanged("/etc/f", v1) }); n != 0 {
		t.Fatalf("unchanged read allocates %v times", n)
	}

	// Every write moves the version: by a process, and by the boot-time
	// installer replacing the file outright.
	if err := proot.WriteFile("/etc/f", []byte("two"), true); err != nil {
		t.Fatal(err)
	}
	data, v2, err := pa.ReadFileIfChanged("/etc/f", v1)
	if err != nil || string(data) != "two" || v2 == v1 {
		t.Fatalf("after WriteFile: %q v%d %v", data, v2, err)
	}
	v3 := s.WriteFileAs(RootUID, "/etc/f", []byte("two"), true).Version
	if v3 == v2 || v3 == v1 {
		t.Fatalf("WriteFileAs reused a version: %d after %d, %d", v3, v1, v2)
	}

	// The charge is per call, changed or not.
	base := s.Audit().PrivilegedOps
	proot.ReadFileIfChanged("/etc/f", v3)
	proot.ReadFileIfChanged("/etc/f", 0)
	if got := s.Audit().PrivilegedOps - base; got != 2 {
		t.Fatalf("privileged ops charged = %d, want 2", got)
	}

	// Permission comes before the version: holding the current version
	// of a file that is no longer readable gets a refusal, not "unchanged".
	v4 := s.WriteFileAs(RootUID, "/etc/f", []byte("two"), false).Version
	if _, _, err := pa.ReadFileIfChanged("/etc/f", v4); !errors.Is(err, ErrPermission) {
		t.Fatalf("unreadable file: %v", err)
	}
	if _, _, err := pa.ReadFileIfChanged("/etc/missing", 0); !errors.Is(err, ErrNoFile) {
		t.Fatalf("missing file: %v", err)
	}
	pa.Exit()
	if _, _, err := pa.ReadFileIfChanged("/etc/f", 0); !errors.Is(err, ErrDeadProcess) {
		t.Fatalf("dead process: %v", err)
	}
}
