// The million-subject federation scenario (BENCH_scale.json): two
// resource-server OS processes, each with WAL-backed durable trust
// state and a CAS bundle replica pulled from a primary publisher with
// a standby behind it, decide a corpus of ~1M distinct subject DNs
// across 10k concurrent osim sessions. Mid-run the parent kills the
// primary publisher AND admits a batch of late members — phase 2 of
// the load proves the standby delivered the update and that not one
// decision failed open while the federation was degraded.
//
// The parent process is the orchestrator: it mints the credentials,
// hosts the community server behind both publisher endpoints, re-execs
// the test binary twice as TestScaleChildProcess, and coordinates the
// failover over the children's stdin/stdout. Results land in
// BENCH_scale.json via cmd/bench2json.
package repro

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gridcert"
	"repro/internal/osim"
	"repro/pkg/gsi"
)

// scaleParams sizes the scenario. The full numbers (the acceptance
// shape: 1M subjects, 10k sessions) run when GSI_SCALE_FULL=1; a bare
// `go test -bench Scale` runs a quick smoke shape.
type scaleParams struct {
	Children int
	Subjects int // total distinct corpus, split across children
	Sessions int // total concurrent sessions, split across children
	// MemberMod: subject i is a founding VO member when i%MemberMod == 0,
	// and a late member (admitted during the failover) when
	// i%MemberMod == MemberMod/2.
	MemberMod int
}

func scaleShape() scaleParams {
	if os.Getenv("GSI_SCALE_FULL") == "1" {
		return scaleParams{Children: 2, Subjects: 1_000_000, Sessions: 10_000, MemberMod: 100}
	}
	return scaleParams{Children: 2, Subjects: 8_000, Sessions: 400, MemberMod: 20}
}

// The per-child protocol: child → parent "SCALE-READY", "SCALE-PHASE1",
// "SCALE-REPORT <json>" lines on stdout; parent → child one
// "FAILOVER\n" line on stdin after the primary is gone.
const (
	scaleReady   = "SCALE-READY"
	scalePhase1  = "SCALE-PHASE1"
	scaleReport  = "SCALE-REPORT "
	scaleRelease = "FAILOVER"
)

// scaleChildReport is what each child prints after its load run.
type scaleChildReport struct {
	Load       osim.LoadReport   `json:"load"`
	Sync       gsi.CASSyncStatus `json:"sync"`
	PolicyGen  uint64            `json:"policy_gen"`
	GridMapGen uint64            `json:"gridmap_gen"`
	SetupNS    int64             `json:"setup_ns"`
}

func BenchmarkScaleFederatedSessions(b *testing.B) {
	shape := scaleShape()
	for i := 0; i < b.N; i++ {
		runScaleScenario(b, shape)
	}
}

func runScaleScenario(b *testing.B, shape scaleParams) {
	dir := b.TempDir()
	ctx := context.Background()

	authority, err := gsi.NewCA("/O=Scale/CN=Scale CA", 24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		b.Fatal(err)
	}
	voCred, err := authority.NewEntity(gsi.MustParseName("/O=Scale/CN=ScaleVO CAS"), 12*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	vo := gsi.NewCASServer(voCred)
	vo.AddPolicy(gsi.Rule{
		ID:        "vo-scale",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"scale"},
		Resources: []string{"data:/scale/*"},
		Actions:   []string{"read"},
	})
	member := func(i int) bool { return i%shape.MemberMod == 0 }
	late := func(i int) bool { return i%shape.MemberMod == shape.MemberMod/2 }
	for i := 0; i < shape.Subjects; i++ {
		if member(i) {
			vo.AddMember(gridcert.MustParseName(osim.SubjectDN(i)), "scale")
		}
	}

	// Node credentials, serialized for the children.
	mustWrite := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			b.Fatal(err)
		}
	}
	mustWrite("roots", gridcert.EncodeChain([]*gsi.Certificate{authority.Certificate()}))
	mustWrite("vo.cert", gridcert.EncodeChain([]*gsi.Certificate{vo.Certificate()}))
	nodeDNs := make([]string, shape.Children)
	for c := 0; c < shape.Children; c++ {
		cred, err := authority.NewHostEntity(gsi.MustParseName(fmt.Sprintf("/O=Scale/CN=node%d", c)), 12*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		nodeDNs[c] = cred.Identity().String()
		blob, err := gridcert.EncodeCredential(cred)
		if err != nil {
			b.Fatal(err)
		}
		mustWrite(fmt.Sprintf("node%d.cred", c), blob)
	}

	// Publisher endpoints: primary and standby both serve the same
	// community server; only the configured node identities may pull.
	pubPolicy := gsi.NewPolicy(gsi.Rule{
		ID:        "bundle-readers",
		Effect:    gsi.EffectPermit,
		Subjects:  nodeDNs,
		Resources: []string{"ogsa:gsi.__cas.sync"},
		Actions:   []string{"*"},
	})
	echo := func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	}
	servePublisher := func(name string) gsi.Endpoint {
		cred, err := authority.NewHostEntity(gsi.MustParseName("/O=Scale/CN="+name), 12*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := env.NewServer(cred,
			gsi.WithTransport(gsi.TransportGT3()),
			gsi.WithCASPublisher(vo),
			gsi.WithLocalPolicy(pubPolicy))
		if err != nil {
			b.Fatal(err)
		}
		ep, err := srv.Serve(ctx, "127.0.0.1:0", echo)
		if err != nil {
			b.Fatal(err)
		}
		return ep
	}
	primary := servePublisher("cas primary")
	standby := servePublisher("cas standby")
	defer standby.Close()
	defer primary.Close()

	// Re-exec the children.
	childWidth := shape.Subjects / shape.Children
	sessions := shape.Sessions / shape.Children
	ops := childWidth / 2 / sessions
	if ops == 0 {
		b.Fatalf("shape too small: %d subjects across %d sessions", childWidth, sessions)
	}
	type child struct {
		cmd    *exec.Cmd
		stdin  io.WriteCloser
		lines  chan string
		report scaleChildReport
	}
	children := make([]*child, shape.Children)
	for c := range children {
		cmd := exec.Command(os.Args[0], "-test.run=^TestScaleChildProcess$", "-test.timeout=15m")
		cmd.Env = append(os.Environ(),
			"GSI_SCALE_CHILD=1",
			"GSI_SCALE_DIR="+dir,
			"GSI_SCALE_CRED="+fmt.Sprintf("node%d.cred", c),
			"GSI_SCALE_STATE="+filepath.Join(dir, fmt.Sprintf("state%d", c)),
			"GSI_SCALE_PRIMARY="+primary.Addr(),
			"GSI_SCALE_STANDBY="+standby.Addr(),
			"GSI_SCALE_OFFSET="+strconv.Itoa(c*childWidth),
			"GSI_SCALE_WIDTH="+strconv.Itoa(childWidth),
			"GSI_SCALE_SESSIONS="+strconv.Itoa(sessions),
			"GSI_SCALE_OPS="+strconv.Itoa(ops),
			"GSI_SCALE_MOD="+strconv.Itoa(shape.MemberMod),
		)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			b.Fatal(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			b.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			b.Fatal(err)
		}
		ch := &child{cmd: cmd, stdin: stdin, lines: make(chan string, 64)}
		go func() {
			sc := bufio.NewScanner(stdout)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				line := sc.Text()
				if strings.HasPrefix(line, "SCALE-") {
					ch.lines <- line
				}
			}
			close(ch.lines)
		}()
		children[c] = ch
		defer cmd.Process.Kill()
	}
	expect := func(ch *child, prefix string) string {
		for line := range ch.lines {
			if strings.HasPrefix(line, prefix) {
				return line
			}
		}
		b.Fatalf("child exited before sending %q", prefix)
		return ""
	}

	start := time.Now()
	for _, ch := range children {
		expect(ch, scaleReady)
	}
	for _, ch := range children {
		expect(ch, scalePhase1)
	}
	// The degradation: primary gone, then a membership change only the
	// standby can deliver.
	primary.Close()
	for i := 0; i < shape.Subjects; i++ {
		if late(i) {
			vo.AddMember(gridcert.MustParseName(osim.SubjectDN(i)), "scale")
		}
	}
	for _, ch := range children {
		if _, err := io.WriteString(ch.stdin, scaleRelease+"\n"); err != nil {
			b.Fatal(err)
		}
	}
	for _, ch := range children {
		line := expect(ch, scaleReport)
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, scaleReport)), &ch.report); err != nil {
			b.Fatalf("child report: %v\n%s", err, line)
		}
	}
	elapsed := time.Since(start)
	for _, ch := range children {
		if err := ch.cmd.Wait(); err != nil {
			b.Fatalf("child failed: %v", err)
		}
	}

	var total osim.LoadReport
	for c, ch := range children {
		r := ch.report.Load
		total.Sessions += r.Sessions
		total.Decisions += r.Decisions
		total.DistinctSubjects += r.DistinctSubjects
		total.Permits += r.Permits
		total.Denies += r.Denies
		total.FailOpen += r.FailOpen
		total.FailClosed += r.FailClosed
		total.Errors += r.Errors
		total.PrivilegedOps += r.PrivilegedOps
		if ch.report.Sync.LastEndpoint != standby.Addr() {
			b.Fatalf("child %d finished on %q, want standby %q", c, ch.report.Sync.LastEndpoint, standby.Addr())
		}
		if ch.report.Sync.Version < 2 {
			b.Fatalf("child %d never saw the late-member bundle: %+v", c, ch.report.Sync)
		}
	}
	// The invariant of the whole exercise.
	if total.FailOpen != 0 {
		b.Fatalf("fail-open decisions: %d", total.FailOpen)
	}
	if total.FailClosed != 0 {
		b.Fatalf("fail-closed decisions: %d", total.FailClosed)
	}
	if total.Errors != 0 {
		b.Fatalf("decision errors: %d", total.Errors)
	}
	if total.Sessions != sessions*shape.Children {
		b.Fatalf("sessions = %d, want %d", total.Sessions, sessions*shape.Children)
	}
	if want := 2 * ops * sessions * shape.Children; total.DistinctSubjects != want {
		b.Fatalf("distinct subjects = %d, want %d", total.DistinctSubjects, want)
	}
	if total.PrivilegedOps != 0 {
		b.Fatalf("privileged ops during load: %d", total.PrivilegedOps)
	}
	b.ReportMetric(float64(total.Decisions)/elapsed.Seconds(), "decisions/s")
	b.ReportMetric(float64(total.Sessions), "sessions")
	b.ReportMetric(float64(total.DistinctSubjects), "subjects")
	b.ReportMetric(float64(total.FailOpen), "failopen")
}

// TestScaleChildProcess is one resource-server node of the scale
// scenario; it only runs re-exec'd by BenchmarkScaleFederatedSessions
// (GSI_SCALE_CHILD gates it).
func TestScaleChildProcess(t *testing.T) {
	if os.Getenv("GSI_SCALE_CHILD") != "1" {
		t.Skip("re-exec helper for BenchmarkScaleFederatedSessions")
	}
	dir := os.Getenv("GSI_SCALE_DIR")
	mustInt := func(key string) int {
		v, err := strconv.Atoi(os.Getenv(key))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return v
	}
	offset := mustInt("GSI_SCALE_OFFSET")
	width := mustInt("GSI_SCALE_WIDTH")
	sessions := mustInt("GSI_SCALE_SESSIONS")
	ops := mustInt("GSI_SCALE_OPS")
	mod := mustInt("GSI_SCALE_MOD")
	member := func(i int) bool { return i%mod == 0 }
	late := func(i int) bool { return i%mod == mod/2 }

	mustRead := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	roots, err := gridcert.DecodeChain(mustRead("roots"))
	if err != nil {
		t.Fatal(err)
	}
	voChain, err := gridcert.DecodeChain(mustRead("vo.cert"))
	if err != nil {
		t.Fatal(err)
	}
	cred, err := gridcert.DecodeCredential(mustRead(os.Getenv("GSI_SCALE_CRED")))
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(roots...))
	if err != nil {
		t.Fatal(err)
	}

	setupStart := time.Now()
	server, err := env.NewServer(cred,
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithDurableState(os.Getenv("GSI_SCALE_STATE")),
		gsi.WithoutDecisionAudit(),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{
			Endpoints: []string{os.Getenv("GSI_SCALE_PRIMARY"), os.Getenv("GSI_SCALE_STANDBY")},
			Cert:      voChain[0],
			Interval:  100 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	// Durable trust state: the local half of the intersection, and
	// gridmap accounts for every subject policy will ever permit. Every
	// entry journals through the WAL before it applies.
	ds := server.DurableState()
	if ds == nil {
		t.Fatal("no durable state")
	}
	if err := ds.Policy().AddChecked(gsi.Rule{
		ID:        "local-scale",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"scale"},
		Resources: []string{"data:/scale/*"},
		Actions:   []string{"read"},
	}); err != nil {
		t.Fatal(err)
	}
	for i := offset; i < offset+width; i++ {
		if member(i) || late(i) {
			if err := ds.GridMap().AddChecked(gridcert.MustParseName(osim.SubjectDN(i)), "scale"); err != nil {
				t.Fatal(err)
			}
		}
	}
	setup := time.Since(setupStart)

	// Wait for the first bundle, then tell the parent we're live.
	waitSync := func(what string, cond func(gsi.CASSyncStatus) bool) gsi.CASSyncStatus {
		deadline := time.Now().Add(60 * time.Second)
		for {
			st := server.CASSyncStatus()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; status %+v", what, st)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	first := waitSync("first bundle", func(st gsi.CASSyncStatus) bool { return st.Version >= 1 && st.Members > 0 })
	fmt.Println(scaleReady)

	// Decisions ride the documented transport-authenticated fast path:
	// the peer carries verified ChainInfo (as a live session would after
	// its handshake), so the pipeline prices assertion checks, replica
	// lookup, policy intersection, and gridmap mapping — not handshake
	// crypto, which the transport benchmarks already cover.
	pipe := server.AuthorizationPipeline()
	if pipe == nil {
		t.Fatal("no pipeline")
	}
	caName := roots[0].Subject
	pub := cred.Leaf().PublicKey
	notBefore := time.Now().Add(-time.Hour)
	notAfter := time.Now().Add(12 * time.Hour)
	decide := func(session, subject int, dn string) (bool, error) {
		name, err := gridcert.ParseName(dn)
		if err != nil {
			return false, err
		}
		leaf := &gridcert.Certificate{
			Version:      1,
			SerialNumber: uint64(subject) + 1,
			Type:         gridcert.TypeEndEntity,
			Issuer:       caName,
			Subject:      name,
			NotBefore:    notBefore,
			NotAfter:     notAfter,
			PublicKey:    pub,
		}
		peer := gsi.Peer{
			Identity: name,
			Subject:  name,
			Info:     &gridcert.ChainInfo{Identity: name, Subject: name, EndEntity: leaf, Leaf: leaf},
		}
		d, err := pipe.Authorize(context.Background(), peer, "data:/scale/block", "read")
		if err != nil {
			return false, err
		}
		return d.Decision == gsi.Permit, nil
	}

	stdin := bufio.NewReader(os.Stdin)
	sys := osim.NewSystem()
	report, err := osim.RunLoad(sys, osim.LoadConfig{
		Sessions:      sessions,
		OpsPerSession: ops,
		Phases: []osim.LoadPhase{
			{Offset: offset, Subjects: width / 2, Expect: member},
			{Offset: offset + width/2, Subjects: width / 2, Expect: func(i int) bool { return member(i) || late(i) }},
		},
		Decide: decide,
		BetweenPhases: func(int) error {
			// Hold every session at the barrier while the parent kills
			// the primary and admits the late members; resume only after
			// the standby delivered the updated bundle.
			fmt.Println(scalePhase1)
			line, err := stdin.ReadString('\n')
			if err != nil {
				return err
			}
			if strings.TrimSpace(line) != scaleRelease {
				return fmt.Errorf("unexpected parent line %q", line)
			}
			waitSync("standby bundle", func(st gsi.CASSyncStatus) bool {
				return st.Members > first.Members && st.LastEndpoint == os.Getenv("GSI_SCALE_STANDBY")
			})
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	out, err := json.Marshal(scaleChildReport{
		Load:       report,
		Sync:       server.CASSyncStatus(),
		PolicyGen:  ds.Policy().Generation(),
		GridMapGen: ds.GridMap().Generation(),
		SetupNS:    int64(setup),
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(scaleReport + string(out))
}
