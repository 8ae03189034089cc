package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

// shortJobs is the paper's workload and the cold path: many users, each
// running one short secured job, so every op meets caches that have
// never seen its chain. An op is proxy -> signed GRAM submit with GRIM,
// MJS mutual authentication and delegation -> unpooled connect to the
// data server -> 256 KiB stage-in (a cold authorization) -> signed
// status call over HTTP -> close. gss, gridcert, proxy, gram, xmlsec,
// soap, ogsa and the cold authz/cas path do nearly all the work; record
// and the session pool do almost none.
type shortJobs struct {
	users  []*gsi.Credential // entity credential with embedded CAS assertion
	order  []int             // seeded user order
	frames [][]byte          // stage-in payloads: header (length, SHA-256), then the data

	gramHost  *gsi.Credential
	gridmap   *gsi.GridMap // the GRAM host's own mapfile: just the job users
	container *ogsa.Container
	statusURL string
	shutdown  func() error
}

const stageVariants = 4

// stageHeader is what precedes the data on a stage-in stream: its
// length and digest, both checked by the server.
const stageHeader = 8 + sha256.Size

func (s *shortJobs) prepare(w *world, rng *rand.Rand) (err error) {
	s.users = make([]*gsi.Credential, w.sc.users)
	s.gridmap = gsi.NewGridMap()
	for i := range s.users {
		if s.users[i], err = w.mintMember(i, true); err != nil {
			return err
		}
		s.gridmap.Add(memberDN(i), memberAccount(i))
	}
	s.order = rng.Perm(len(s.users))
	s.frames = make([][]byte, stageVariants)
	for i := range s.frames {
		frame := make([]byte, stageHeader+w.sc.stageBytes)
		data := frame[stageHeader:]
		rng.Read(data)
		binary.BigEndian.PutUint64(frame, uint64(len(data)))
		sum := sha256.Sum256(data)
		copy(frame[8:], sum[:])
		s.frames[i] = frame
	}

	// The GRAM host: its hosting environment publishes each job's MJS for
	// status calls over loopback HTTP. Authenticated callers are let in;
	// the MJS itself is the per-user boundary.
	if s.gramHost, err = w.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host gram.bench"), credLifetime); err != nil {
		return err
	}
	if s.container, err = ogsa.NewContainer(ogsa.ContainerConfig{
		Name:       "gram.bench",
		Credential: s.gramHost,
		TrustStore: w.env.Trust(),
	}); err != nil {
		return err
	}
	s.statusURL, s.shutdown, err = gsi.ServeHTTP(s.container, "127.0.0.1:0")
	return err
}

func (s *shortJobs) finish() {
	if s.shutdown != nil {
		s.shutdown()
	}
}

// newResource boots a GRAM resource that has never seen any user, so
// every job on it takes the cold path: MMJFS verification, Setuid
// Starter, GRIM.
func (s *shortJobs) newResource(w *world) (*gsi.JobResource, error) {
	res, err := gsi.NewJobResource(s.gramHost, w.env.Trust(), s.gridmap)
	if err != nil {
		return nil, err
	}
	for i := range s.users {
		if err := res.CreateAccount(memberAccount(i)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// stageInHandler is the data server's stream receiver: it checks the
// announced length and digest against what arrived and answers "ok".
func stageInHandler(_ context.Context, _ gsi.Peer, op string, st gsi.Stream) error {
	if op != "stage-in" {
		return fmt.Errorf("bench: data server has no stream op %q", op)
	}
	var hdr [stageHeader]byte
	if _, err := io.ReadFull(st, hdr[:]); err != nil {
		return fmt.Errorf("stage-in header: %w", err)
	}
	want := binary.BigEndian.Uint64(hdr[:8])
	h := sha256.New()
	n, err := io.Copy(h, st)
	if err != nil {
		return err
	}
	if uint64(n) != want {
		return fmt.Errorf("stage-in: announced %d bytes, received %d", want, n)
	}
	if !bytes.Equal(h.Sum(nil), hdr[8:]) {
		return fmt.Errorf("stage-in: digest mismatch over %d bytes", n)
	}
	_, err = st.Write([]byte("ok"))
	return err
}

type shortJobsInstance struct {
	wl   *shortJobs
	w    *world
	ds   *dataServer
	tr   *tracer
	cenv *gsi.Environment
	res  *gsi.JobResource
	grim int // GRIM runs on resources already retired
	conn int // sessions dialed: there is no pool, so one per job
	sum  uint64
	// corrupt, when set by the determinism test, damages the stage-in
	// frame before it is sent.
	corrupt func(i int, frame []byte) []byte
}

func (s *shortJobs) open(w *world, ds *dataServer, tr *tracer) (instance, error) {
	cenv, err := gsi.NewEnvironment(gsi.WithRoots(w.ca.Certificate()))
	if err != nil {
		return nil, err
	}
	in := &shortJobsInstance{wl: s, w: w, ds: ds, tr: tr, cenv: cenv}
	if in.res, err = s.newResource(w); err != nil {
		return nil, err
	}
	return in, nil
}

// betweenSlices retires the GRAM resource for a fresh one, so that a
// user coming round again is new to the host and every job of the run
// is the same cold job.
func (in *shortJobsInstance) betweenSlices() (err error) {
	in.grim += in.res.Stats().GRIMRuns
	in.res, err = in.wl.newResource(in.w)
	return err
}

func (in *shortJobsInstance) step(i int) (err error) {
	ctx := context.Background()
	u := in.wl.order[i%len(in.wl.order)]
	v := i % stageVariants
	in.sum = mix(in.sum, uint64(u)<<8|uint64(v))
	user := in.wl.users[u]
	tr := in.tr
	op := tr.begin("op")
	defer tr.end(op)

	sp := tr.begin("gsi.proxy_init")
	uc, err := in.cenv.NewClient(user)
	if err != nil {
		return err
	}
	px, err := uc.Proxy(gsi.ProxyOptions{})
	if err != nil {
		return err
	}
	client, err := in.cenv.NewClient(px, gsi.WithDelegation())
	if err != nil {
		return err
	}
	tr.end(sp)

	sp = tr.begin("gsi.submit_job")
	mjs, err := client.SubmitJob(ctx, in.res, gsi.JobDescription{
		Executable:         gsi.JobProgram,
		Directory:          "/home/" + memberAccount(u),
		Queue:              "short",
		DelegateCredential: true,
	})
	if err != nil {
		return fmt.Errorf("op %d: submit: %w", i, err)
	}
	tr.end(sp)

	sp = tr.begin("gsi.connect_cold")
	sess, err := client.Connect(ctx, in.ds.addr)
	if err != nil {
		return fmt.Errorf("op %d: connect: %w", i, err)
	}
	in.conn++
	tr.end(sp)

	sp = tr.begin("gsi.stage_in")
	frame := in.wl.frames[v]
	if in.corrupt != nil {
		frame = in.corrupt(i, frame)
	}
	err = stageIn(ctx, sess, frame)
	tr.end(sp)
	if err != nil {
		sess.Close()
		return fmt.Errorf("op %d: stage-in: %w", i, err)
	}

	sp = tr.begin("gsi.status")
	handle := mjs.Handle()
	in.wl.container.Publish(handle, mjs)
	oc := &ogsa.Client{Transport: gsi.HTTPTransport(in.wl.statusURL), Credential: px, TrustStore: in.cenv.Trust()}
	state, err := oc.InvokeSigned(handle, "GetState", nil)
	tr.end(sp)
	switch {
	case err != nil:
		err = fmt.Errorf("op %d: status: %w", i, err)
	case string(state) != "Done":
		err = fmt.Errorf("op %d: job state %q, want Done", i, state)
	case mjs.DelegatedCredential() == nil || !mjs.DelegatedCredential().Identity().Equal(user.Identity()):
		err = fmt.Errorf("op %d: MJS holds no credential delegated by %s", i, user.Identity())
	}

	sp = tr.begin("gsi.close")
	cerr := sess.Close()
	in.wl.container.Remove(handle)
	tr.end(sp)
	if err == nil && cerr != nil {
		err = fmt.Errorf("op %d: close: %w", i, cerr)
	}
	return err
}

// stageIn streams one framed payload and waits for the server's verdict.
func stageIn(ctx context.Context, sess gsi.Session, frame []byte) error {
	st, err := sess.OpenStream(ctx, "stage-in")
	if err != nil {
		return err
	}
	if _, err := st.Write(frame); err != nil {
		st.Close()
		return err
	}
	if err := st.CloseWrite(); err != nil {
		st.Close()
		return err
	}
	reply, err := io.ReadAll(st)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if string(reply) != "ok" {
		return fmt.Errorf("server answered %q", reply)
	}
	return nil
}

func (in *shortJobsInstance) counters(c map[string]float64) {
	c["gram.grim_runs"] += float64(in.grim + in.res.Stats().GRIMRuns)
	c["pool.dials"] += float64(in.conn)
	addCacheCounters(c, in.ds.pipeline)
}

func (in *shortJobsInstance) digest() uint64 { return in.sum }

func (in *shortJobsInstance) close() {}
