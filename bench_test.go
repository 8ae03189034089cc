// Experiment harness: one benchmark per figure/claim of the paper (see
// DESIGN.md's experiment index and EXPERIMENTS.md for recorded results).
//
//	go test -bench=. -benchmem
//
// Each BenchmarkE* regenerates the series for one experiment; custom
// metrics carry the non-time quantities (administrative acts, messages,
// bytes, privileged operations).
package repro

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/bridge"
	"repro/internal/ca"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/gridcert"
	"repro/internal/gsitransport"
	"repro/internal/gss"
	"repro/internal/kerberos"
	"repro/internal/ogsa"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/vo"
	"repro/internal/wssec"
	"repro/internal/xmlsec"
	"repro/pkg/gsi"
)

// --- shared fixtures ----------------------------------------------------

type fixture struct {
	auth  *ca.Authority
	trust *gridcert.TrustStore
	alice *gridcert.Credential
	host  *gridcert.Credential
}

func newFixture(tb testing.TB) fixture {
	tb.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		tb.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	if err := trust.AddRoot(auth.Certificate()); err != nil {
		tb.Fatal(err)
	}
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	host, err := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host bench"), 12*time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	return fixture{auth: auth, trust: trust, alice: alice, host: host}
}

// --- E1: Figure 1 — VO trust-domain formation ---------------------------

// BenchmarkE1_TrustEstablishment compares forming an N-domain VO with
// unilateral CA trust (GSI, community CA) against pairwise bilateral
// Kerberos agreements. Metrics: acts/op = administrative acts;
// agreements/op = organizational agreements.
func BenchmarkE1_TrustEstablishment(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("GSI-communityCA/domains=%d", n), func(b *testing.B) {
			var acts int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				domains := makeDomains(b, n, false)
				community, err := ca.New(gridcert.MustParseName("/O=Community/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
				if err != nil {
					b.Fatal(err)
				}
				v := vo.New("bench")
				b.StartTimer()
				cost, err := v.JoinGSIWithCommunityCA(community, domains...)
				if err != nil {
					b.Fatal(err)
				}
				acts = cost.UnilateralActs
			}
			b.ReportMetric(float64(acts), "acts/op")
			b.ReportMetric(0, "agreements/op")
		})
		b.Run(fmt.Sprintf("Kerberos-bilateral/domains=%d", n), func(b *testing.B) {
			var agreements int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				domains := makeDomains(b, n, true)
				b.StartTimer()
				cost, err := vo.FormKerberos(domains)
				if err != nil {
					b.Fatal(err)
				}
				agreements = cost.BilateralAgreements
			}
			b.ReportMetric(float64(agreements), "agreements/op")
			// Each agreement is an act on both sides.
			b.ReportMetric(float64(2*agreements), "acts/op")
		})
	}
}

func makeDomains(tb testing.TB, n int, realms bool) []*vo.Domain {
	tb.Helper()
	out := make([]*vo.Domain, n)
	for i := range out {
		d, err := vo.NewDomain(fmt.Sprintf("Org%02d", i))
		if err != nil {
			tb.Fatal(err)
		}
		if realms {
			d.Realm = kerberos.NewKDC(fmt.Sprintf("ORG%02d.EXAMPLE", i))
		}
		out[i] = d
	}
	return out
}

// --- E2: Figure 2 — CAS flow --------------------------------------------

type casFixture struct {
	fixture
	server   *cas.Server
	enforcer *cas.Enforcer
	creds    *gridcert.Credential // alice's assertion-bearing proxy
}

func newCASFixture(tb testing.TB, rules int) casFixture {
	tb.Helper()
	f := newFixture(tb)
	voCred, err := f.auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=VO CAS"), 12*time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	server := cas.NewServer(voCred)
	server.AddMember(f.alice.Identity(), "researchers")
	for i := 0; i < rules; i++ {
		server.AddPolicy(authz.Rule{
			ID:        fmt.Sprintf("r%d", i),
			Effect:    authz.EffectPermit,
			Groups:    []string{"researchers"},
			Resources: []string{fmt.Sprintf("data:/set%d/*", i)},
			Actions:   []string{"read"},
		})
	}
	local := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:    authz.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"data:/*"},
		Actions:   []string{"read", "write"},
	})
	enforcer := cas.NewEnforcer(f.trust, local)
	enforcer.TrustVO(server.Certificate())
	a, err := server.IssueAssertion(f.alice.Identity())
	if err != nil {
		tb.Fatal(err)
	}
	creds, err := cas.EmbedInProxy(f.alice, a)
	if err != nil {
		tb.Fatal(err)
	}
	return casFixture{fixture: f, server: server, enforcer: enforcer, creds: creds}
}

// BenchmarkE2_CAS sweeps VO policy size over the three steps of Figure 2:
// assertion issuance (step 1), proxy embedding (step 2), and resource
// enforcement (step 3).
func BenchmarkE2_CAS(b *testing.B) {
	for _, rules := range []int{10, 100, 1000, 10000} {
		f := newCASFixture(b, rules)
		b.Run(fmt.Sprintf("step1-issue/rules=%d", rules), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.server.IssueAssertion(f.alice.Identity()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("step2-embed/rules=%d", rules), func(b *testing.B) {
			a, err := f.server.IssueAssertion(f.alice.Identity())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cas.EmbedInProxy(f.alice, a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("step3-enforce/rules=%d", rules), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := f.enforcer.Authorize(f.creds.Chain, "data:/set0/file", "read", time.Time{})
				if err != nil || res.Decision != authz.Permit {
					b.Fatalf("%v %+v", err, res)
				}
			}
		})
	}
}

// --- E3: Figure 3 — OGSA secured request pipeline ------------------------

// BenchmarkE3_SecuredRequest measures the five-step pipeline end to end:
// stateful vs stateless mechanisms, with and without credential
// conversion. Per-phase metrics expose the breakdown.
func BenchmarkE3_SecuredRequest(b *testing.B) {
	mk := func(b *testing.B) (*core.Bootstrap, *gridcert.Credential, wssec.Transport) {
		boot, err := core.NewBootstrap("/O=Grid/CN=CA", "/O=Grid/CN=host e3", nil)
		if err != nil {
			b.Fatal(err)
		}
		boot.Stack.Container.Publish("app", newBenchService())
		alice, err := boot.CA.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		return boot, alice, soap.Pipe(boot.Stack.Container.Dispatcher())
	}

	b.Run("stateful-fullpipeline", func(b *testing.B) {
		boot, alice, transport := mk(b)
		_ = boot
		var last core.Trace
		for i := 0; i < b.N; i++ {
			req := &core.Requestor{Credential: alice, Trust: boot.Trust}
			_, trace, err := req.Invoke(transport, "app", "echo", []byte("x"))
			if err != nil {
				b.Fatal(err)
			}
			last = trace
		}
		b.ReportMetric(float64(last.PolicyFetch.Nanoseconds()), "policy-ns")
		b.ReportMetric(float64(last.TokenProcessing.Nanoseconds()), "token-ns")
		b.ReportMetric(float64(last.Invocation.Nanoseconds()), "invoke-ns")
	})
	b.Run("stateless-fullpipeline", func(b *testing.B) {
		boot, alice, transport := mk(b)
		// Restrict the service policy to message signatures.
		var last core.Trace
		for i := 0; i < b.N; i++ {
			req := &core.Requestor{Credential: alice, Trust: boot.Trust, PreferStateless: true}
			_, trace, err := req.Invoke(transport, "app", "echo", []byte("x"))
			if err != nil {
				b.Fatal(err)
			}
			last = trace
		}
		b.ReportMetric(float64(last.PolicyFetch.Nanoseconds()), "policy-ns")
		b.ReportMetric(float64(last.Invocation.Nanoseconds()), "invoke-ns")
	})
	b.Run("with-kca-conversion", func(b *testing.B) {
		boot, _, transport := mk(b)
		kdc := kerberos.NewKDC("SITE.EXAMPLE")
		principal := kdc.RegisterPrincipal("alice", "pw")
		kcaP, kcaKey, err := kdc.RegisterService("kca/grid")
		if err != nil {
			b.Fatal(err)
		}
		kcaAuthority, err := ca.New(gridcert.MustParseName("/O=Site/CN=KCA"), 24*time.Hour, ca.DefaultPolicy())
		if err != nil {
			b.Fatal(err)
		}
		mapper := bridge.NewIdentityMapper()
		mapper.MapKerberos(gridcert.MustParseName("/O=Site/CN=Alice"), principal)
		kca := bridge.NewKCA(kcaAuthority, kerberos.NewService(kcaP, kcaKey), mapper)
		if err := boot.Trust.AddRoot(kcaAuthority.Certificate()); err != nil {
			b.Fatal(err)
		}
		convert := func() (*gridcert.Credential, error) {
			tgt, tgtSess, err := kdc.ASExchange("alice", "pw")
			if err != nil {
				return nil, err
			}
			a1, _ := kerberos.NewAuthenticator(principal, tgtSess, time.Now())
			st, stSess, err := kdc.TGSExchange(tgt, a1, "kca/grid")
			if err != nil {
				return nil, err
			}
			ap, _ := kerberos.NewAuthenticator(principal, stSess, time.Now())
			return kca.Convert(st, ap)
		}
		var last core.Trace
		for i := 0; i < b.N; i++ {
			req := &core.Requestor{Trust: boot.Trust, Convert: convert}
			_, trace, err := req.Invoke(transport, "app", "echo", []byte("x"))
			if err != nil {
				b.Fatal(err)
			}
			last = trace
		}
		b.ReportMetric(float64(last.Conversion.Nanoseconds()), "convert-ns")
	})
}

type benchService struct{ *ogsa.Base }

func newBenchService() *benchService {
	s := &benchService{Base: ogsa.NewBase()}
	s.Data.Set("__warmup__", []byte("ok"))
	return s
}

func (s *benchService) Invoke(call *ogsa.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	return call.Body, nil
}

// --- E4: Figure 4 — GT3 GRAM job initiation ------------------------------

func newGRAMBench(tb testing.TB) (*gram.Resource, *gram.Client) {
	tb.Helper()
	f := newFixture(tb)
	gm := authz.NewGridMap()
	gm.Add(f.alice.Identity(), "alice")
	res, err := gram.NewResource(f.host, f.trust, gm)
	if err != nil {
		tb.Fatal(err)
	}
	if err := res.CreateAccount("alice"); err != nil {
		tb.Fatal(err)
	}
	p, err := proxy.New(f.alice, proxy.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return res, &gram.Client{Credential: p, Trust: f.trust, Resource: res}
}

var benchJob = gram.JobDescription{
	Executable:         gram.JobProgram,
	Queue:              "debug",
	DelegateCredential: true,
}

// BenchmarkE4_GRAM measures Figure-4 job initiation: the cold path
// (steps 1–7 including Setuid Starter and GRIM) vs the warm path (LMJFS
// already running) vs the GT2 gatekeeper baseline.
func BenchmarkE4_GRAM(b *testing.B) {
	b.Run("cold-steps1-7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			res, client := newGRAMBench(b)
			_ = res
			b.StartTimer()
			if _, err := client.SubmitAndRun(benchJob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-lmjfs-present", func(b *testing.B) {
		res, client := newGRAMBench(b)
		if _, err := client.SubmitAndRun(benchJob); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.SubmitAndRun(benchJob); err != nil {
				b.Fatal(err)
			}
		}
		st := res.Stats()
		b.ReportMetric(float64(st.GRIMRuns), "grim-runs-total")
	})
	b.Run("gt2-gatekeeper-baseline", func(b *testing.B) {
		f := newFixture(b)
		gm := authz.NewGridMap()
		gm.Add(f.alice.Identity(), "alice")
		res, err := gram.NewGT2Resource(f.host, f.trust, gm)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CreateAccount("alice"); err != nil {
			b.Fatal(err)
		}
		p, err := proxy.New(f.alice, proxy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		desc := gram.JobDescription{Executable: gram.JobProgram}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gram.SubmitSigned(res, p, desc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E5: §5.2 — least privilege ------------------------------------------

// BenchmarkE5_LeastPrivilege runs a 10-job workload on each architecture
// and reports the privilege posture: privileged network services,
// setuid programs, and privileged operations.
func BenchmarkE5_LeastPrivilege(b *testing.B) {
	const jobs = 10
	b.Run("gt3", func(b *testing.B) {
		var privOps, privNet, setuid float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			res, client := newGRAMBench(b)
			b.StartTimer()
			for j := 0; j < jobs; j++ {
				if _, err := client.SubmitAndRun(benchJob); err != nil {
					b.Fatal(err)
				}
			}
			snap := res.Sys.Audit()
			privOps = float64(snap.PrivilegedOps)
			privNet = float64(len(snap.PrivilegedNetworkServices))
			setuid = float64(len(snap.SetuidPrograms))
		}
		b.ReportMetric(privOps, "priv-ops")
		b.ReportMetric(privNet, "priv-net-services")
		b.ReportMetric(setuid, "setuid-programs")
	})
	b.Run("gt2", func(b *testing.B) {
		var privOps, privNet float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := newFixture(b)
			gm := authz.NewGridMap()
			gm.Add(f.alice.Identity(), "alice")
			res, err := gram.NewGT2Resource(f.host, f.trust, gm)
			if err != nil {
				b.Fatal(err)
			}
			res.CreateAccount("alice")
			p, _ := proxy.New(f.alice, proxy.Options{})
			desc := gram.JobDescription{Executable: gram.JobProgram}
			b.StartTimer()
			for j := 0; j < jobs; j++ {
				if _, err := gram.SubmitSigned(res, p, desc); err != nil {
					b.Fatal(err)
				}
			}
			snap := res.Sys.Audit()
			privOps = float64(snap.PrivilegedOps)
			privNet = float64(len(snap.PrivilegedNetworkServices))
		}
		b.ReportMetric(privOps, "priv-ops")
		b.ReportMetric(privNet, "priv-net-services")
	})
}

// --- E6: §5.1 — context establishment GT2 vs GT3 --------------------------

// BenchmarkE6_ContextEstablishment compares the same GSS tokens framed
// over TCP (GT2) and carried in SOAP envelopes (GT3
// WS-SecureConversation). Metrics: handshake messages and bytes.
func BenchmarkE6_ContextEstablishment(b *testing.B) {
	f := newFixture(b)
	b.Run("gt2-transport", func(b *testing.B) {
		var msgs, bytes float64
		for i := 0; i < b.N; i++ {
			client, server := pipeHandshake(b, f)
			st := client.Handshake()
			msgs, bytes = float64(st.Messages), float64(st.Bytes)
			client.Close()
			server.Close()
		}
		b.ReportMetric(msgs, "hs-msgs")
		b.ReportMetric(bytes, "hs-bytes")
	})
	b.Run("gt3-soap", func(b *testing.B) {
		d := soap.NewDispatcher()
		mgr := wssec.NewConversationManager(gss.Config{Credential: f.host, TrustStore: f.trust})
		mgr.Register(d)
		transport := soap.Pipe(d)
		var msgs, bytes float64
		for i := 0; i < b.N; i++ {
			conv, err := wssec.EstablishConversation(gss.Config{Credential: f.alice, TrustStore: f.trust}, transport)
			if err != nil {
				b.Fatal(err)
			}
			st := conv.Stats()
			msgs, bytes = float64(st.Messages), float64(st.Bytes)
		}
		b.ReportMetric(msgs, "hs-msgs")
		b.ReportMetric(bytes, "hs-bytes")
	})
}

func pipeHandshake(tb testing.TB, f fixture) (*gsitransport.Conn, *gsitransport.Conn) {
	tb.Helper()
	cRaw, sRaw := net.Pipe()
	type result struct {
		conn *gsitransport.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := gsitransport.Server(sRaw, gss.Config{Credential: f.host, TrustStore: f.trust})
		ch <- result{conn, err}
	}()
	client, err := gsitransport.Client(cRaw, gss.Config{Credential: f.alice, TrustStore: f.trust})
	if err != nil {
		tb.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		tb.Fatal(sr.err)
	}
	return client, sr.conn
}

// --- E7: §5.1 — stateless vs stateful for K-message exchanges -------------

// BenchmarkE7_StatelessVsStateful sweeps the number of messages K
// exchanged with one service: per-message XML-Signature (no context) vs
// context establishment + wrapped messages. The crossover demonstrates
// why GT3 offers both forms.
func BenchmarkE7_StatelessVsStateful(b *testing.B) {
	f := newFixture(b)
	payload := make([]byte, 1024)
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("stateless-sign-each/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					env := soap.NewEnvelope("app/op", payload)
					if err := xmlsec.SignEnvelope(env, f.alice); err != nil {
						b.Fatal(err)
					}
					if _, err := xmlsec.VerifyEnvelope(env, xmlsec.VerifyOptions{TrustStore: f.trust}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("stateful-context+wrap/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ictx, actx, err := gss.Establish(
					gss.Config{Credential: f.alice, TrustStore: f.trust},
					gss.Config{Credential: f.host, TrustStore: f.trust},
				)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < k; j++ {
					w, err := ictx.Wrap(payload)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := actx.Unwrap(w); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- E8: §3 — mechanism bridging ------------------------------------------

// BenchmarkE8_Bridge measures the credential-conversion gateways: KCA
// (Kerberos→GSI) and PKINIT (GSI→Kerberos), including validation of the
// converted credentials.
func BenchmarkE8_Bridge(b *testing.B) {
	kdc := kerberos.NewKDC("SITE.EXAMPLE")
	principal := kdc.RegisterPrincipal("alice", "pw")
	kcaP, kcaKey, err := kdc.RegisterService("kca/grid")
	if err != nil {
		b.Fatal(err)
	}
	kcaAuthority, err := ca.New(gridcert.MustParseName("/O=Site/CN=KCA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		b.Fatal(err)
	}
	mapper := bridge.NewIdentityMapper()
	aliceDN := gridcert.MustParseName("/O=Site/CN=Alice")
	mapper.MapKerberos(aliceDN, principal)
	kca := bridge.NewKCA(kcaAuthority, kerberos.NewService(kcaP, kcaKey), mapper)
	trust := gridcert.NewTrustStore()
	if err := trust.AddRoot(kcaAuthority.Certificate()); err != nil {
		b.Fatal(err)
	}

	b.Run("kca-kerberos-to-gsi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tgt, tgtSess, err := kdc.ASExchange("alice", "pw")
			if err != nil {
				b.Fatal(err)
			}
			a1, _ := kerberos.NewAuthenticator(principal, tgtSess, time.Now())
			st, stSess, err := kdc.TGSExchange(tgt, a1, "kca/grid")
			if err != nil {
				b.Fatal(err)
			}
			ap, _ := kerberos.NewAuthenticator(principal, stSess, time.Now())
			cred, err := kca.Convert(st, ap)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := trust.Verify(cred.Chain, gridcert.VerifyOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pkinit-gsi-to-kerberos", func(b *testing.B) {
		gridAuth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
		if err != nil {
			b.Fatal(err)
		}
		gridTrust := gridcert.NewTrustStore()
		gridTrust.AddRoot(gridAuth.Certificate())
		aliceCred, err := gridAuth.NewEntity(aliceDN, 12*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		gw := bridge.NewPKINIT(kdc, gridTrust, mapper)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := gw.Convert(aliceCred.Chain); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E10: handshake amortization — session pool + resumption --------------

// The pair the ISSUE's acceptance criteria compare: the same secured
// request/response over a live GT2 endpoint, paying the full public-key
// handshake every call (cold) versus riding the session pool (pooled).
// BENCH_pool.json holds their recorded rows.

func newExchangeBenchWorld(b *testing.B, clientOpts ...gsi.Option) (*gsi.Client, gsi.Endpoint) {
	b.Helper()
	w := newPoolWorld(b)
	server, err := w.env.NewServer(w.host)
	if err != nil {
		b.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0", func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ep.Close() })
	client, err := w.env.NewClient(w.alice, clientOpts...)
	if err != nil {
		b.Fatal(err)
	}
	if p := client.Pool(); p != nil {
		b.Cleanup(func() { p.Close() })
	}
	return client, ep
}

// BenchmarkExchangeColdHandshake dials, handshakes, exchanges, and
// tears down per operation — the pre-pool cost of every call.
func BenchmarkExchangeColdHandshake(b *testing.B) {
	client, ep := newExchangeBenchWorld(b)
	ctx := context.Background()
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := client.Connect(ctx, ep.Addr())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Exchange(ctx, "echo", payload); err != nil {
			b.Fatal(err)
		}
		sess.Close()
	}
}

// BenchmarkExchangePooledResume reuses one pooled connection across all
// operations: the handshake is paid once, every later call costs only
// record protection and the socket round trip.
func BenchmarkExchangePooledResume(b *testing.B) {
	client, ep := newExchangeBenchWorld(b, gsi.WithSessionPool(nil))
	ctx := context.Background()
	payload := make([]byte, 1024)
	if _, err := client.Exchange(ctx, ep.Addr(), "echo", payload); err != nil {
		b.Fatal(err) // warm the pool outside the timed region
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Exchange(ctx, ep.Addr(), "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := client.Pool().Stats()
	b.ReportMetric(float64(st.Dials), "handshakes-total")
	b.ReportMetric(float64(st.Hits), "pool-hits-total")
}

// --- E9: §3 — proxy delegation chains --------------------------------------

// BenchmarkE9_DelegationChain sweeps chain depth D: creating a depth-D
// chain and validating it. Validation cost grows linearly with depth.
func BenchmarkE9_DelegationChain(b *testing.B) {
	f := newFixture(b)
	for _, depth := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("create/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur := f.alice
				for d := 0; d < depth; d++ {
					next, err := proxy.New(cur, proxy.Options{})
					if err != nil {
						b.Fatal(err)
					}
					cur = next
				}
			}
		})
		b.Run(fmt.Sprintf("verify/depth=%d", depth), func(b *testing.B) {
			cur := f.alice
			for d := 0; d < depth; d++ {
				next, err := proxy.New(cur, proxy.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cur = next
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				info, err := f.trust.Verify(cur.Chain, gridcert.VerifyOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if info.ProxyDepth != depth {
					b.Fatalf("depth = %d", info.ProxyDepth)
				}
			}
		})
	}
}
