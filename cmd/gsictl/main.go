// Command gsictl is the control-plane client and demo server of the
// observability plane (PR 6). `gsictl serve` stands up a GT3 facade
// server with metrics, hot-reload, and the gsi.__admin port type, and
// writes a bundle directory holding everything another process needs to
// reach it: trust roots, admin and user credentials, the endpoint URL,
// and the live-editable policy/gridmap/CRL files the server watches.
// The other subcommands load that bundle and drive the admin surface
// over a mutually authenticated secure conversation.
//
// Usage:
//
//	gsictl serve  [-dir DIR] [-addr HOST:PORT] [-metrics HOST:PORT] [-interval D]
//	gsictl stats  [-dir DIR] [-cred NAME]
//	gsictl metrics [-dir DIR] [-cred NAME]
//	gsictl drain  [-dir DIR] [-cred NAME]
//	gsictl reload [-dir DIR] [-cred NAME]
//	gsictl retire [-dir DIR] [-cred NAME] FINGERPRINT
//	gsictl traces [-dir DIR] [-cred NAME] [-n N] [-op OP] [-peer DN] [-errors] [-trace HEXID]
//	gsictl cas-status [-dir DIR] [-cred NAME]
//	gsictl cas-sync [-dir DIR] [-cred NAME]
//	gsictl compact [-dir DIR] [-cred NAME]
//
// traces queries the server's flight recorder: slowest-N spans by
// default, filterable by op name, peer DN substring, errors-only, or a
// single full trace by id.
// cas-status reports the CAS policy-bundle replica (applied version,
// generation, pull history split into delta and full-bundle replies,
// what the last pull took and in which shape it was answered); cas-sync
// forces a pull from the configured upstreams. Both require a server started with
// WithCASUpstream. compact folds the durable journal into a snapshot
// now and reports its shape after; it requires WithDurableState.
//
// The serve process runs until SIGINT/SIGTERM, then drains gracefully:
// the endpoint closes (taking the reload watcher and metrics listener
// with it), the admin pool drains, and the endpoint file is removed so
// stale clients fail fast instead of hanging on a dead address.
//
// Authorization is live policy, not configuration: -cred user selects
// the bundled user credential, which the default policy.json permits
// for application exchanges but not for "ogsa:gsi.__admin" — so admin
// ops are denied until you edit policy.json (no restart needed; the
// server reloads it).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

const (
	adminDN = "/O=Grid/CN=gsictl admin"
	userDN  = "/O=Grid/CN=gsictl user"
	hostDN  = "/O=Grid/CN=gsictl server"
	caDN    = "/O=Grid/CN=gsictl CA"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "serve":
		runServe(args)
	case "stats", "metrics", "drain", "reload", "retire", "traces", "cas-status",
		"cas-sync", "compact":
		runAdminOp(cmd, args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gsictl serve|stats|metrics|drain|reload|retire|traces|cas-status|cas-sync|compact [flags] [args]")
	os.Exit(2)
}

// --- serve ---------------------------------------------------------------

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", defaultDir(), "bundle directory (credentials, watched config, endpoint)")
	addr := fs.String("addr", "127.0.0.1:0", "service listen address")
	metricsAddr := fs.String("metrics", "127.0.0.1:9464", "plaintext /metrics + /healthz listen address (empty disables)")
	interval := fs.Duration("interval", 500*time.Millisecond, "config file poll interval")
	fs.Parse(args)

	if err := os.MkdirAll(*dir, 0o700); err != nil {
		log.Fatal(err)
	}

	// A one-CA world whose material outlives this process: clients load
	// the bundle from disk, so the server and a later gsictl stats agree
	// on roots and identities without sharing memory.
	authority, err := gsi.NewCA(caDN, 24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName(hostDN), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	admin, err := authority.NewEntity(gsi.MustParseName(adminDN), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	user, err := authority.NewEntity(gsi.MustParseName(userDN), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeBundle(*dir, authority.Certificate(), admin, user); err != nil {
		log.Fatal(err)
	}

	// The live policy/gridmap objects are seeded by decoding the very
	// files the reloader watches, so an operator edit and the initial
	// state go through one codec and one validation path.
	pol := authz.NewPolicy(authz.DenyOverrides)
	rules, combining, err := authz.DecodePolicyJSON(mustRead(filepath.Join(*dir, "policy.json")))
	if err != nil || combining != pol.Combining() {
		log.Fatalf("seeding policy: %v", err)
	}
	if err := pol.Replace(rules); err != nil {
		log.Fatal(err)
	}
	gm, err := authz.ParseGridMap(string(mustRead(filepath.Join(*dir, "gridmap"))))
	if err != nil {
		log.Fatal(err)
	}

	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	pool := gsi.NewSessionPool()
	reg := gsi.NewMetricsRegistry()

	opts := []gsi.Option{
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithLocalPolicy(pol),
		gsi.WithGridMap(gm),
		gsi.WithMetrics(reg),
		gsi.WithTracing(),
		gsi.WithAdmin(),
		gsi.WithAdminPool(pool),
		gsi.WithReload(gsi.ReloadConfig{
			TrustRoots: filepath.Join(*dir, "roots"),
			CRLs:       filepath.Join(*dir, "crls"),
			GridMap:    filepath.Join(*dir, "gridmap"),
			Policy:     filepath.Join(*dir, "policy.json"),
			Interval:   *interval,
		}),
	}
	if *metricsAddr != "" {
		opts = append(opts, gsi.WithMetricsListener(*metricsAddr))
	}
	server, err := env.NewServer(host, opts...)
	if err != nil {
		log.Fatal(err)
	}

	// SIGINT/SIGTERM start the graceful drain instead of killing the
	// process mid-conversation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ep, err := server.Serve(ctx, *addr, func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	epFile := filepath.Join(*dir, "endpoint")
	if err := os.WriteFile(epFile, []byte(ep.Addr()+"\n"), 0o644); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("gsictl server up\n")
	fmt.Printf("  endpoint   %s\n", ep.Addr())
	if *metricsAddr != "" {
		fmt.Printf("  metrics    http://%s/metrics (health: /healthz)\n", *metricsAddr)
	}
	fmt.Printf("  bundle     %s\n", *dir)
	fmt.Printf("  admin via  gsictl stats -dir %s\n", *dir)
	fmt.Printf("  tracing    on — gsictl traces -dir %s (flight recorder)\n", *dir)
	fmt.Printf("edit %s/policy.json or %s/gridmap and watch them apply live; ^C drains and exits\n", *dir, *dir)

	<-ctx.Done()
	fmt.Println("\ndraining...")
	if err := ep.Close(); err != nil {
		log.Printf("endpoint close: %v", err)
	}
	if err := pool.Close(); err != nil {
		log.Printf("pool close: %v", err)
	}
	os.Remove(epFile)
	fmt.Println("done")
}

// writeBundle lays down everything a client process needs plus the
// files the server watches. Credentials carry private keys → 0600; the
// rest is public configuration.
func writeBundle(dir string, root *gsi.Certificate, admin, user *gsi.Credential) error {
	adminCred, err := gridcert.EncodeCredential(admin)
	if err != nil {
		return err
	}
	userCred, err := gridcert.EncodeCredential(user)
	if err != nil {
		return err
	}
	policy := authz.NewPolicy(authz.DenyOverrides).Add(
		authz.Rule{
			ID:        "admin-control-plane",
			Effect:    authz.EffectPermit,
			Subjects:  []string{adminDN},
			Resources: []string{"ogsa:" + ogsa.AdminHandle},
			Actions:   []string{"*"},
		},
		authz.Rule{
			ID:        "exchanges",
			Effect:    authz.EffectPermit,
			Subjects:  []string{"*"},
			Resources: []string{"ogsa:gsi.exchange"},
			Actions:   []string{"*"},
		},
	)
	policyJSON, err := policy.EncodePolicyJSON()
	if err != nil {
		return err
	}
	gridmap := fmt.Sprintf("%q gsiadmin\n%q gsiuser\n", adminDN, userDN)
	files := []struct {
		name string
		data []byte
		mode os.FileMode
	}{
		{"roots", gridcert.EncodeChain([]*gsi.Certificate{root}), 0o644},
		{"crls", gridcert.EncodeCRLSet(nil), 0o644},
		{"gridmap", []byte(gridmap), 0o644},
		{"policy.json", policyJSON, 0o644},
		{"admin.cred", adminCred, 0o600},
		{"user.cred", userCred, 0o600},
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, f.mode); err != nil {
			return err
		}
	}
	return nil
}

// --- admin subcommands ---------------------------------------------------

func runAdminOp(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", defaultDir(), "bundle directory written by gsictl serve")
	credName := fs.String("cred", "admin", "credential to authenticate with: admin or user")
	timeout := fs.Duration("timeout", 10*time.Second, "call deadline")
	var traceN *int
	var traceOp, tracePeer, traceID *string
	var traceErrs *bool
	if cmd == "traces" {
		traceN = fs.Int("n", 0, "return the slowest N spans (0 = server default)")
		traceOp = fs.String("op", "", "filter by exact span op name")
		tracePeer = fs.String("peer", "", "filter by peer DN substring")
		traceErrs = fs.Bool("errors", false, "errored spans only")
		traceID = fs.String("trace", "", "select one full trace by hex id (spans in start order)")
	}
	fs.Parse(args)

	var op string
	var body []byte
	switch cmd {
	case "stats":
		op = ogsa.AdminOpStats
	case "metrics":
		op = ogsa.AdminOpMetrics
	case "drain":
		op = ogsa.AdminOpDrain
	case "reload":
		op = ogsa.AdminOpReload
	case "retire":
		if fs.NArg() != 1 {
			log.Fatal("retire requires a credential fingerprint (hex prefix)")
		}
		op = ogsa.AdminOpRetire
		body = []byte(fs.Arg(0))
	case "traces":
		op = ogsa.AdminOpTraces
		q := struct {
			N          int    `json:"n,omitempty"`
			Op         string `json:"op,omitempty"`
			Peer       string `json:"peer,omitempty"`
			ErrorsOnly bool   `json:"errors_only,omitempty"`
			Trace      string `json:"trace,omitempty"`
		}{*traceN, *traceOp, *tracePeer, *traceErrs, *traceID}
		var err error
		if body, err = json.Marshal(q); err != nil {
			log.Fatal(err)
		}
	case "cas-status":
		op = ogsa.AdminOpCASStatus
	case "cas-sync":
		op = ogsa.AdminOpCASSync
	case "compact":
		op = ogsa.AdminOpCompact
	}

	roots, err := gridcert.DecodeChain(mustRead(filepath.Join(*dir, "roots")))
	if err != nil {
		log.Fatalf("loading roots: %v", err)
	}
	cred, err := gridcert.DecodeCredential(mustRead(filepath.Join(*dir, *credName+".cred")))
	if err != nil {
		log.Fatalf("loading %s credential: %v", *credName, err)
	}
	endpoint := strings.TrimSpace(string(mustRead(filepath.Join(*dir, "endpoint"))))
	if endpoint == "" {
		log.Fatalf("no endpoint in %s — is gsictl serve running?", *dir)
	}

	env, err := gsi.NewEnvironment(gsi.WithRoots(roots...))
	if err != nil {
		log.Fatal(err)
	}
	client, err := env.NewClient(cred, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	out, err := client.Invoke(ctx, endpoint, ogsa.AdminHandle, op, body)
	if err != nil {
		log.Fatalf("%s: %v", cmd, err)
	}
	os.Stdout.Write(out)
	if len(out) > 0 && out[len(out)-1] != '\n' {
		fmt.Println()
	}
}

func defaultDir() string {
	return filepath.Join(os.TempDir(), "gsictl")
}

func mustRead(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	return data
}
