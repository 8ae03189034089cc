package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/authz"
	"repro/internal/cas"
	"repro/internal/gram"
	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
	"repro/internal/gridftp"
	"repro/internal/gsitransport"
	"repro/internal/gss"
	"repro/internal/ogsa"
	"repro/internal/proxy"
	"repro/internal/record"
	"repro/internal/soap"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/xmlsec"
	"repro/pkg/gsi"
)

// Probes are direct, repeated calls into one layer's public functions
// on the inputs the workloads use: the same proxy chain, the same 1 KiB
// and 16 MiB payloads, the same rule set and membership roll. They run
// after the timed repetitions of a traced run and are reported as the
// clock read them (the run's speed factor is printed beside them).

// probeBudget is how long one probe measures.
const probeBudget = 120 * time.Millisecond

// perCall times fn in batches sized to a few milliseconds and returns
// the median batch's nanoseconds per call — for calls too short to time
// one by one.
func perCall(fn func()) float64 {
	fn() // first call pays lazy initialisation
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 2*time.Millisecond || n >= 1<<22 {
			break
		}
		n *= 2
	}
	var samples []float64
	for start := time.Now(); time.Since(start) < probeBudget || len(samples) < 5; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return percentile(samples, 0.5)
}

// eachCall times every call of fn on its own and returns the median in
// nanoseconds; prep, if not nil, runs untimed before each call.
func eachCall(prep func(i int) error, fn func(i int) error) (float64, error) {
	var samples []float64
	for i, start := 0, time.Now(); time.Since(start) < probeBudget || len(samples) < 9; i++ {
		if prep != nil {
			if err := prep(i); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err := fn(i)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		samples = append(samples, float64(d.Nanoseconds()))
	}
	return percentile(samples, 0.5), nil
}

// allocsPer counts heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

type prober struct {
	res *result
	w   *world
	out map[string]float64

	user  *gsi.Credential // member with embedded assertion, as short_jobs users
	px    *gsi.Credential // fresh proxy below it: the chain short_jobs presents
	bare  *gsi.Credential // depth-1 proxy of a bare member, as pooled_rpc
	echo  []byte
	bulk  []byte
	ictx  *gss.Context
	actx  *gss.Context
	hostC gss.Config
}

func runProbes(res *result, w *world) error {
	p := &prober{res: res, w: w, out: res.probes}
	rng := rand.New(rand.NewSource(res.cfg.seed))
	var err error
	if p.user, err = w.mintMember(1, true); err != nil {
		return err
	}
	if p.px, err = proxy.New(p.user, proxy.Options{}); err != nil {
		return err
	}
	member, err := w.mintMember(0, false)
	if err != nil {
		return err
	}
	if p.bare, err = proxy.New(member, proxy.Options{}); err != nil {
		return err
	}
	p.echo = make([]byte, w.sc.echoBytes)
	rng.Read(p.echo)
	p.bulk = make([]byte, w.sc.bulkBytes)
	rng.Read(p.bulk)
	p.hostC = gss.Config{Credential: w.hostCred, TrustStore: w.env.Trust()}
	if p.ictx, p.actx, err = gss.Establish(gss.Config{Credential: p.bare, TrustStore: w.env.Trust()}, p.hostC); err != nil {
		return err
	}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"gss", p.gss}, {"gridcert", p.gridcert}, {"gridcrypto", p.gridcrypto}, {"record", p.record},
		{"gsitransport", p.transport}, {"proxy", p.proxy}, {"gram", p.gram}, {"xml", p.xml},
		{"authz", p.authz}, {"wal", p.wal}, {"telemetry", p.telemetry},
	} {
		if err := step.run(); err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
	}
	return nil
}

func (p *prober) gss() error {
	client, err := p.w.env.NewClient(p.bare)
	if err != nil {
		return err
	}
	ns, err := eachCall(nil, func(int) error {
		_, _, err := client.Establish(context.Background(), p.hostC)
		return err
	})
	if err != nil {
		return err
	}
	p.out["gss.handshake_us"] = ns / 1e3
	cn, _ := gridcrypto.RandomBytes(gss.ResumeNonceSize)
	sn, _ := gridcrypto.RandomBytes(gss.ResumeNonceSize)
	var rerr error
	p.out["gss.resume_handshake_us"] = perCall(func() {
		if _, err := p.ictx.Resume(cn, sn); err != nil {
			rerr = err
		}
		if _, err := p.actx.Resume(cn, sn); err != nil {
			rerr = err
		}
	}) / 1e3
	return rerr
}

func (p *prober) gridcert() error {
	trust := p.w.env.Trust()
	chain := p.px.Chain
	var verr error
	verify := func() {
		if _, err := trust.Verify(chain, gridcert.VerifyOptions{}); err != nil {
			verr = err
		}
	}
	p.out["gridcert.verify_chain_us"] = perCall(verify) / 1e3
	p.out["gridcert.verify_allocs"] = allocsPer(200, verify)
	cache := gridcert.NewVerifyCache(0)
	encoded := gridcert.EncodeChain(chain)
	p.out["gridcert.verify_cached_ns"] = perCall(func() {
		if _, err := trust.VerifyCached(cache, encoded, chain, gridcert.VerifyOptions{}); err != nil {
			verr = err
		}
	})
	return verr
}

func (p *prober) gridcrypto() error {
	key, err := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		return err
	}
	msg := p.echo[:256]
	sig, err := key.Sign(msg)
	if err != nil {
		return err
	}
	var perr error
	p.out["gridcrypto.sign_us"] = perCall(func() {
		if _, err := key.Sign(msg); err != nil {
			perr = err
		}
	}) / 1e3
	pub := key.Public()
	p.out["gridcrypto.verify_us"] = perCall(func() {
		if err := pub.Verify(msg, sig); err != nil {
			perr = err
		}
	}) / 1e3
	peer, err := gridcrypto.GenerateECDH()
	if err != nil {
		return err
	}
	peerPub := peer.PublicBytes()
	p.out["gridcrypto.key_agreement_us"] = perCall(func() {
		mine, err := gridcrypto.GenerateECDH()
		if err != nil {
			perr = err
			return
		}
		if _, err := mine.SharedSecret(peerPub); err != nil {
			perr = err
		}
	}) / 1e3

	aeadKey := bytes.Repeat([]byte{0xC5}, gridcrypto.AEADKeySize)
	sealer, err := gridcrypto.NewSealer(aeadKey)
	if err != nil {
		return err
	}
	opener, err := gridcrypto.NewOpener(aeadKey)
	if err != nil {
		return err
	}
	aad := []byte("bench")
	for _, size := range []struct {
		plain      []byte
		seal, open string
		asRate     bool
	}{
		{p.echo, "gridcrypto.seal_1k_ns", "gridcrypto.open_1k_ns", false},
		{p.bulk[:record.DefaultChunkSize], "gridcrypto.seal_mb_per_s", "gridcrypto.open_mb_per_s", true},
	} {
		dst := make([]byte, 0, len(size.plain)+gridcrypto.SealOverhead)
		sealNS := perCall(func() {
			if _, _, err := sealer.SealInto(dst, size.plain, aad); err != nil {
				perr = err
			}
		})
		sealed := sealer.SealAtInto(7, nil, size.plain, aad)
		scratch := make([]byte, len(sealed))
		// Opening in place consumes the ciphertext, so each call opens a
		// fresh copy; the copy is part of the number.
		openNS := perCall(func() {
			copy(scratch, sealed)
			if _, err := opener.OpenAtInPlace(7, scratch, aad); err != nil {
				perr = err
			}
		})
		if size.asRate {
			mb := float64(len(size.plain)) / 1e6
			p.out[size.seal], p.out[size.open] = mb/(sealNS/1e9), mb/(openNS/1e9)
		} else {
			p.out[size.seal], p.out[size.open] = sealNS, openNS
		}
	}
	return perr
}

// record measures the record layer in memory (no socket): one 1 KiB
// record sealed, framed, read back and opened; and 16 MiB as 256 KiB
// chunk records through the same serial path. The pipelined path is
// measured over a loopback connection in transport.
func (p *prober) record() error {
	var buf bytes.Buffer
	var rerr error
	roundtrip := func(plain []byte) {
		buf.Reset()
		if err := record.SealAndWrite(&buf, p.ictx, plain); err != nil {
			rerr = err
			return
		}
		_, b, err := record.Read(&buf, p.actx, record.MaxRecord, 0)
		if err != nil {
			rerr = err
			return
		}
		b.Free()
	}
	p.out["record.roundtrip_1k_ns"] = perCall(func() { roundtrip(p.echo) })
	p.out["record.allocs_1k"] = allocsPer(1000, func() { roundtrip(p.echo) })
	stream := func() {
		for off := 0; off < len(p.bulk); off += record.DefaultChunkSize {
			roundtrip(p.bulk[off:min(off+record.DefaultChunkSize, len(p.bulk))])
		}
	}
	mb := float64(len(p.bulk)) / 1e6
	p.out["record.stream_mb_per_s"] = mb / (perCall(stream) / 1e9)
	p.out["record.stream_allocs_per_mb"] = allocsPer(3, stream) / mb

	var fb bytes.Buffer
	p.out["wire.frame_roundtrip_ns"] = perCall(func() {
		fb.Reset()
		if err := wire.WriteFrame(&fb, p.echo); err != nil {
			rerr = err
		}
		if _, err := wire.ReadFrame(&fb); err != nil {
			rerr = err
		}
	})
	return rerr
}

// connPair dials a secured connection over loopback TCP and hands the
// accepted side to serve on its own goroutine; stop closes both and
// waits for serve to return.
func (p *prober) connPair(serve func(*gsitransport.Conn)) (*gsitransport.Conn, func(), error) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ln := gsitransport.NewListener(inner, p.hostC)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc, err := ln.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		serve(sc)
	}()
	c, err := gsitransport.Dial(inner.Addr().String(), gss.Config{Credential: p.bare, TrustStore: p.w.env.Trust()})
	if err != nil {
		ln.Close()
		<-done
		return nil, nil, err
	}
	return c, func() { c.Close(); ln.Close(); <-done }, nil
}

func (p *prober) transport() error {
	// Conn-level echo: the GT2 exchange without the facade, pool or
	// authorization.
	c, stop, err := p.connPair(func(sc *gsitransport.Conn) {
		for {
			msg, err := sc.Receive()
			if err != nil || sc.Send(msg) != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var terr error
	p.out["gsitransport.exchange_rtt_us"] = perCall(func() {
		if err := c.Send(p.echo); err != nil {
			terr = err
			return
		}
		if _, err := c.Receive(); err != nil {
			terr = err
		}
	}) / 1e3
	stop()
	if terr != nil {
		return terr
	}

	// The pipelined record path as a transfer uses it: 16 MiB written to a
	// stream (parallel seal, vectored flush), read to FIN on the far side
	// (prefetching reader, parallel open), acknowledged.
	c, stop, err = p.connPair(func(sc *gsitransport.Conn) {
		for {
			got, err := gsitransport.NewStream(context.Background(), sc).ReadAll(len(p.bulk))
			if err != nil || sc.Send([]byte{byte(len(got) >> 20)}) != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	ns, err := eachCall(nil, func(int) error {
		st := gsitransport.NewStream(context.Background(), c)
		if _, err := st.Write(p.bulk); err != nil {
			return err
		}
		if err := st.CloseWrite(); err != nil {
			return err
		}
		ack, err := c.Receive()
		if err == nil && (len(ack) != 1 || int(ack[0]) != len(p.bulk)>>20) {
			err = fmt.Errorf("stream probe: peer received %v MiB", ack)
		}
		return err
	})
	stop()
	if err != nil {
		return err
	}
	p.out["record.pipeline_mb_per_s"] = float64(len(p.bulk)) / 1e6 / (ns / 1e9)

	// Stripe rendezvous: a striped PUT of one byte is all JOINs, grants
	// and FIN trailers.
	store := gridftp.NewStore(authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect: authz.EffectPermit, Subjects: []string{p.bare.Identity().String()},
		Resources: []string{"/probe/*"}, Actions: []string{"read", "write"},
	}))
	srv, err := gridftp.NewServer("127.0.0.1:0", store, p.w.hostCred, p.w.env.Trust())
	if err != nil {
		return err
	}
	defer srv.Close()
	fc, err := gridftp.Dial(srv.Addr(), p.bare, p.w.env.Trust(), srv.Identity())
	if err != nil {
		return err
	}
	defer fc.Close()
	ns, err = eachCall(nil, func(int) error { return fc.PutStriped("/probe/join", benchStripes(), []byte{1}) })
	p.out["gsitransport.stripe_join_us"] = ns / 1e3
	return err
}

func (p *prober) proxy() error {
	var perr error
	p.out["proxy.new_us"] = perCall(func() {
		if _, err := proxy.New(p.user, proxy.Options{}); err != nil {
			perr = err
		}
	}) / 1e3
	p.out["proxy.delegation_us"] = perCall(func() {
		delegatee, req, err := proxy.NewDelegatee(0, false)
		if err != nil {
			perr = err
			return
		}
		reqDec, err := proxy.DecodeDelegationRequest(req.Encode())
		if err != nil {
			perr = err
			return
		}
		reply, err := proxy.HandleDelegation(p.px, reqDec, proxy.Options{})
		if err != nil {
			perr = err
			return
		}
		repDec, err := proxy.DecodeDelegationReply(reply.Encode())
		if err != nil {
			perr = err
			return
		}
		if _, err := delegatee.Accept(repDec); err != nil {
			perr = err
		}
	}) / 1e3
	return perr
}

// gram splits a cold job submission into its two facade-invisible
// halves: Submit (sign, route, MMJFS verify, starter, GRIM, LMJFS
// verify, MJS creation) and Run (MJS mutual authentication, delegation,
// start). Every timed call meets a resource that has never seen its
// user, over a mapfile the size short_jobs uses.
func (p *prober) gram() error {
	const probeUsers = 16
	sj := &shortJobs{gridmap: gsi.NewGridMap(), users: make([]*gsi.Credential, p.w.sc.users)}
	for i := 0; i < p.w.sc.users; i++ {
		sj.gridmap.Add(memberDN(i), memberAccount(i))
	}
	var err error
	if sj.gramHost, err = p.w.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host gram.bench"), credLifetime); err != nil {
		return err
	}
	proxies := make([]*gsi.Credential, probeUsers)
	for i := range proxies {
		user, err := p.w.mintMember(i, true)
		if err != nil {
			return err
		}
		if proxies[i], err = proxy.New(user, proxy.Options{}); err != nil {
			return err
		}
	}
	desc := gram.JobDescription{Executable: gram.JobProgram, Queue: "short", DelegateCredential: true}
	var res *gsi.JobResource
	freshEvery := func(i int) error {
		if i%probeUsers == 0 {
			res, err = sj.newResource(p.w)
		}
		return err
	}
	client := func(i int) *gram.Client {
		return &gram.Client{
			Credential: proxies[i%probeUsers], Trust: p.w.env.Trust(), Resource: res,
			ConnectConfig: gss.Config{Delegate: true},
		}
	}
	ns, err := eachCall(freshEvery, func(i int) error {
		_, err := client(i).Submit(desc)
		return err
	})
	if err != nil {
		return err
	}
	p.out["gram.submit_us"] = ns / 1e3
	var handle gram.JobHandle
	ns, err = eachCall(func(i int) error {
		if err := freshEvery(i); err != nil {
			return err
		}
		handle, err = client(i).Submit(desc)
		return err
	}, func(i int) error {
		_, err := client(i).Run(handle)
		return err
	})
	p.out["gram.run_us"] = ns / 1e3
	return err
}

// doneService answers GetState like a finished job's MJS.
type doneService struct{ *ogsa.Base }

func (s doneService) Invoke(call *ogsa.Call) ([]byte, error) {
	if call.Op != "GetState" {
		return nil, fmt.Errorf("no op %q", call.Op)
	}
	return []byte("Done"), nil
}

func (p *prober) xml() error {
	body := gram.JobDescription{Executable: gram.JobProgram, Queue: "short", DelegateCredential: true}.Encode()
	var xerr error
	p.out["xmlsec.sign_envelope_us"] = perCall(func() {
		if err := xmlsec.SignEnvelope(soap.NewEnvelope(gram.ActionSubmit, body), p.px); err != nil {
			xerr = err
		}
	}) / 1e3
	signed := soap.NewEnvelope(gram.ActionSubmit, body)
	if err := xmlsec.SignEnvelope(signed, p.px); err != nil {
		return err
	}
	opts := xmlsec.VerifyOptions{TrustStore: p.w.env.Trust(), RejectLimited: true}
	p.out["xmlsec.verify_envelope_us"] = perCall(func() {
		if _, err := xmlsec.VerifyEnvelope(signed, opts); err != nil {
			xerr = err
		}
	}) / 1e3
	if xerr != nil {
		return xerr
	}

	container, err := ogsa.NewContainer(ogsa.ContainerConfig{Name: "probe", Credential: p.w.hostCred, TrustStore: p.w.env.Trust()})
	if err != nil {
		return err
	}
	container.Publish("job", doneService{ogsa.NewBase()})
	url, shutdown, err := gsi.ServeHTTP(container, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer shutdown()
	oc := &ogsa.Client{Transport: gsi.HTTPTransport(url), Credential: p.px, TrustStore: p.w.env.Trust()}
	check := func(out []byte, err error) error {
		if err == nil && string(out) != "Done" {
			err = fmt.Errorf("status probe answered %q", out)
		}
		return err
	}
	ns, err := eachCall(nil, func(int) error { return check(oc.InvokeSigned("job", "GetState", nil)) })
	if err != nil {
		return err
	}
	p.out["ogsa.invoke_signed_us"] = ns / 1e3
	// The first secure call establishes the conversation; the probe is an
	// exchange on the established one.
	if err := check(oc.InvokeSecure("job", "GetState", nil)); err != nil {
		return err
	}
	ns, err = eachCall(nil, func(int) error { return check(oc.InvokeSecure("job", "GetState", nil)) })
	p.out["wssec.conversation_exchange_us"] = ns / 1e3
	return err
}

// authz probes a pipeline assembled like the data server's over a copy
// of the same durable state and the same bundle.
func (p *prober) authz() error {
	w := p.w
	dir, err := w.freshDurableDir()
	if err != nil {
		return err
	}
	pl, err := w.env.NewAuthorizationPipeline(
		gsi.WithDurableState(dir),
		gsi.WithoutDecisionAudit(),
		gsi.WithTrustedVO(w.vo.Certificate()),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{Endpoints: []string{"unused:0"}, Cert: w.vo.Certificate()}),
	)
	if err != nil {
		return err
	}
	defer pl.DurableState().Close()

	// Full bundle: what the first sync decodes, verifies and applies.
	bundle, err := w.vo.ExportBundle()
	if err != nil {
		return err
	}
	enc := bundle.Encode()
	fullApply := func(rep *cas.Replica) error {
		b, err := cas.DecodeBundle(enc)
		if err != nil {
			return err
		}
		return rep.Apply(b)
	}
	ns, err := eachCall(nil, func(int) error { return fullApply(cas.NewReplica(w.vo.Certificate())) })
	if err != nil {
		return err
	}
	p.out["cas.full_apply_ms"] = ns / 1e6
	var aerr error
	p.out["cas.full_apply_allocs"] = allocsPer(2, func() {
		if err := fullApply(cas.NewReplica(w.vo.Certificate())); err != nil {
			aerr = err
		}
	})
	rep := pl.Replica()
	if err := fullApply(rep); err != nil {
		return err
	}

	// Delta following: the publisher's roll changes (untimed), the replica
	// catches up by signed delta.
	var deltaBytes int
	ns, err = eachCall(func(i int) error {
		if i%2 == 0 {
			return w.vo.AddMemberChecked(churnDN, voGroup)
		}
		return w.vo.RemoveMemberChecked(churnDN)
	}, func(int) error {
		d, err := w.vo.ExportDelta(rep.Version())
		if err != nil {
			return err
		}
		e := d.Encode()
		deltaBytes = len(e)
		dd, err := cas.DecodeDelta(e)
		if err != nil {
			return err
		}
		return rep.ApplyDelta(dd)
	})
	if err != nil {
		return err
	}
	p.out["cas.delta_apply_us"] = ns / 1e3
	if p.res.cfg.workload != "authz_churn" {
		p.out["cas.delta_bytes"] = float64(deltaBytes)
	}
	if err := w.vo.RemoveMemberChecked(churnDN); err != nil {
		return err
	}

	// Decisions. Cold: the first decision for a subject the pipeline has
	// never seen (more subjects than the verified-chain cache holds, a new
	// action each round so no round hits the decision cache). Hit: the same
	// question again.
	const subjects = 512
	peers := make([]gsi.Peer, subjects)
	for i := range peers {
		cred, err := w.mintMember(i, false)
		if err != nil {
			return err
		}
		info, err := w.env.Trust().Verify(cred.Chain, gridcert.VerifyOptions{})
		if err != nil {
			return err
		}
		peers[i] = gsi.Peer{Identity: info.Identity, Subject: info.Subject, Chain: cred.Chain, Info: info}
	}
	ctx := context.Background()
	actions := make([]string, 64)
	for i := range actions {
		actions[i] = fmt.Sprintf("probe-%d", i)
	}
	i := 0
	cold := func() {
		d, err := pl.Authorize(ctx, peers[i%subjects], exchangeResource, actions[i/subjects%len(actions)])
		i++
		if err != nil || d.Decision != gsi.Permit || d.Cached {
			aerr = fmt.Errorf("cold decision probe: %+v %v", d, err)
		}
	}
	p.out["authz.decide_cold_us"] = perCall(cold) / 1e3
	p.out["authz.decide_cold_allocs"] = allocsPer(subjects, cold)
	p.out["authz.decide_hit_ns"] = perCall(func() {
		d, err := pl.Authorize(ctx, peers[0], exchangeResource, "echo")
		if err != nil || d.Decision != gsi.Permit {
			aerr = fmt.Errorf("cached decision probe: %+v %v", d, err)
		}
	})
	if aerr != nil {
		return aerr
	}

	req := authz.Request{Subject: peers[0].Identity, Groups: []string{voGroup}, Resource: exchangeResource, Action: "echo", Time: time.Now()}
	p.out["authz.policy_eval_us"] = perCall(func() {
		if pl.LocalPolicy().Evaluate(req) != authz.Permit {
			aerr = fmt.Errorf("policy probe: local policy does not permit")
		}
	}) / 1e3
	p.out["authz.gridmap_lookup_ns"] = perCall(func() {
		if _, ok := pl.GridMap().Lookup(peers[0].Identity); !ok {
			aerr = fmt.Errorf("gridmap probe: no entry")
		}
	})
	p.out["cas.replica_lookup_ns"] = perCall(func() {
		if _, _, ok := rep.Lookup(peers[0].Identity); !ok {
			aerr = fmt.Errorf("replica probe: not a member")
		}
	})
	info, err := w.env.Trust().Verify(p.user.Chain, gridcert.VerifyOptions{})
	if err != nil {
		return err
	}
	voCert := w.vo.Certificate()
	trusted := func(gridcert.Name) (*gridcert.Certificate, bool) { return voCert, true }
	p.out["cas.check_assertion_us"] = perCall(func() {
		a, reason, err := cas.CheckAssertion(info, trusted, time.Now())
		if a == nil || reason != "" || err != nil {
			aerr = fmt.Errorf("assertion probe: %s %v", reason, err)
		}
	}) / 1e3
	return aerr
}

func (p *prober) wal() error {
	log, err := wal.Open(filepath.Join(p.w.dir, "probe-wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := p.echo[:96]
	ns, err := eachCall(nil, func(int) error {
		_, err := log.Append(1, payload)
		return err
	})
	p.out["wal.append_p50_us"] = ns / 1e3
	return err
}

func (p *prober) telemetry() error {
	reg := p.res.registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	var terr error
	p.out["telemetry.scrape_ms"] = perCall(func() {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			terr = err
		}
	}) / 1e6
	return terr
}
