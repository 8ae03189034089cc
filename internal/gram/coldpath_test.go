package gram

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
	"repro/internal/israce"
	"repro/internal/osim"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/xmlsec"
)

// --- the grid-mapfile view -------------------------------------------------

// fillerMap is a grid-mapfile of n entries for users who never show up.
func fillerMap(n int) *authz.GridMap {
	gm := authz.NewGridMap()
	for i := 0; i < n; i++ {
		gm.Add(gridcert.MustParseName(fmt.Sprintf("/O=Grid/CN=Filler %04d", i)), fmt.Sprintf("f%04d", i))
	}
	return gm
}

// mapText is a grid-mapfile with alice (unless dropped) among filler
// entries, so lookups are not over a one-line file.
func mapText(b *gramBed, withAlice bool, fillers int) []byte {
	gm := fillerMap(fillers)
	if withAlice {
		gm.Add(b.alice.Identity(), "alice")
	}
	return []byte(gm.Serialize())
}

func signedSubmit(t testing.TB, b *gramBed) *soap.Envelope {
	t.Helper()
	env := soap.NewEnvelope(ActionSubmit, testJob().Encode())
	if err := xmlsec.SignEnvelope(env, b.client.Credential); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestMapfileEditAppliesToNextSubmit: an administrator's rewrite of the
// grid-mapfile through osim decides the very next request, at MMJFS and
// at an LMJFS that is already running, and adding the user back restores
// service through that same LMJFS.
func TestMapfileEditAppliesToNextSubmit(t *testing.T) {
	b := newGramBed(t)
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatal(err)
	}
	l := b.res.lmjfs["alice"]

	b.res.Sys.WriteFileAs(osim.RootUID, GridMapPath, mapText(b, false, 20), true)
	if _, err := b.client.Submit(testJob()); err == nil || !strings.Contains(err.Error(), "mmjfs: no grid-mapfile entry") {
		t.Fatalf("dropped user at MMJFS: %v", err)
	}
	if _, err := l.handleSubmit(signedSubmit(t, b)); err == nil || !strings.Contains(err.Error(), "lmjfs: no grid-mapfile entry") {
		t.Fatalf("dropped user at the running LMJFS: %v", err)
	}
	if st := b.res.Stats(); st.JobsAccepted != 1 || st.ColdStarts != 1 {
		t.Fatalf("a refused request had effects: %+v", st)
	}

	b.res.Sys.WriteFileAs(osim.RootUID, GridMapPath, mapText(b, true, 20), true)
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatalf("after re-adding the user: %v", err)
	}
	if st := b.res.Stats(); st.WarmHits != 1 || st.ColdStarts != 1 {
		t.Fatalf("restored user did not reach its LMJFS: %+v", st)
	}
}

// TestMapfileUnreadableRefusesEveryReader: the view is no way around the
// file's permissions. Once the mapfile is not world readable, the router,
// MMJFS and a running LMJFS are each refused by osim, though the view
// holds a parse of the very version on disk.
func TestMapfileUnreadableRefusesEveryReader(t *testing.T) {
	b := newGramBed(t)
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatal(err)
	}
	l := b.res.lmjfs["alice"]
	text := mapText(b, true, 0)
	b.res.Sys.WriteFileAs(osim.RootUID, GridMapPath, text, true)
	if _, err := b.client.Submit(testJob()); err != nil {
		t.Fatal(err)
	}
	b.res.Sys.WriteFileAs(osim.RootUID, GridMapPath, text, false)
	for who, deliver := range map[string]func(*soap.Envelope) (*soap.Envelope, error){
		"router": b.res.Deliver, "mmjfs": b.res.handleMMJFS, "lmjfs": l.handleSubmit,
	} {
		if _, err := deliver(signedSubmit(t, b)); !errors.Is(err, osim.ErrPermission) {
			t.Errorf("%s over an unreadable mapfile: %v", who, err)
		}
	}
	b.res.Sys.WriteFileAs(osim.RootUID, GridMapPath, text, true)
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatalf("after restoring the mode: %v", err)
	}
}

// TestMapfileMalformedRefusesUntilRepaired: a rewrite that does not parse
// refuses every submit — the last good view is never served — and each
// write, good or bad, is parsed exactly once however many requests follow.
func TestMapfileMalformedRefusesUntilRepaired(t *testing.T) {
	b := newGramBed(t)
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatal(err)
	}
	l := b.res.lmjfs["alice"]
	booted := b.res.gridmap

	bad := append(mapText(b, true, 5), "/O=Grid/CN=Unquoted mallory\n"...)
	b.res.Sys.WriteFileAs(osim.RootUID, GridMapPath, bad, true)
	for i := 0; i < 3; i++ {
		if _, err := b.client.Submit(testJob()); err == nil || !strings.Contains(err.Error(), "DN must be quoted") {
			t.Fatalf("submit %d over a malformed mapfile: %v", i, err)
		}
		if _, err := l.handleSubmit(signedSubmit(t, b)); err == nil || !strings.Contains(err.Error(), "DN must be quoted") {
			t.Fatalf("running LMJFS, submit %d over a malformed mapfile: %v", i, err)
		}
		if b.res.gridmap != nil {
			t.Fatal("a view is held for a malformed mapfile")
		}
	}

	b.res.Sys.WriteFileAs(osim.RootUID, GridMapPath, mapText(b, true, 5), true)
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatalf("after the repair: %v", err)
	}
	repaired := b.res.gridmap
	if repaired == nil || repaired == booted {
		t.Fatal("the repaired mapfile was not parsed")
	}
	for i := 0; i < 3; i++ {
		if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
			t.Fatal(err)
		}
		if b.res.gridmap != repaired {
			t.Fatal("an unwritten mapfile was parsed again")
		}
	}
}

// bedWithMapfile is a gramBed whose mapfile holds fillers entries beside
// alice's, and an account for every one of users cold users.
func bedWithMapfile(t testing.TB, fillers, users int) (*gramBed, []*Client) {
	t.Helper()
	b := newGramBed(t)
	gm := fillerMap(fillers)
	gm.Add(b.alice.Identity(), "alice")
	clients := make([]*Client, users)
	for i := range clients {
		dn := gridcert.MustParseName(fmt.Sprintf("/O=Grid/CN=Cold %04d", i))
		cred, err := b.auth.NewEntity(dn, 12*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		gm.Add(dn, fmt.Sprintf("c%04d", i))
		if err := b.res.CreateAccount(fmt.Sprintf("c%04d", i)); err != nil {
			t.Fatal(err)
		}
		p, err := proxy.New(cred, proxy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = &Client{Credential: p, Trust: b.trust, Resource: b.res}
	}
	b.res.Sys.WriteFileAs(osim.RootUID, GridMapPath, []byte(gm.Serialize()), true)
	// The one parse the write costs.
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatal(err)
	}
	return b, clients
}

// TestSubmitCostIndependentOfMapfileSize: no step of a submission is
// O(mapfile). A warm Deliver allocates the same over a 10-entry and a
// 1,000-entry mapfile, and so does a cold submit-and-run, which is to say
// neither parses the file.
func TestSubmitCostIndependentOfMapfileSize(t *testing.T) {
	const coldUsers = 8
	var warm, cold [2]float64
	for i, entries := range []int{10, 1000} {
		b, clients := bedWithMapfile(t, entries-1-coldUsers, coldUsers)
		env := signedSubmit(t, b)
		warm[i] = testing.AllocsPerRun(50, func() {
			if _, err := b.res.Deliver(env); err != nil {
				t.Fatal(err)
			}
		})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, c := range clients {
			if _, err := c.SubmitAndRunContext(context.Background(), testJob()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		cold[i] = float64(m1.Mallocs-m0.Mallocs) / coldUsers
		if st := b.res.Stats(); st.ColdStarts != 1+coldUsers {
			t.Fatalf("cold starts = %d", st.ColdStarts)
		}
	}
	// One parse of 1,000 entries is over 10,000 allocations. The slack is
	// for the runtime's own: a pool emptied by a collection (or at random,
	// under the race detector), a map growing.
	if d := warm[1] - warm[0]; d > 2 || d < -2 {
		t.Errorf("warm Deliver: %v allocs over 10 entries, %v over 1,000", warm[0], warm[1])
	}
	if d := cold[1] - cold[0]; d > 20 || d < -20 {
		t.Errorf("cold submit+run: %.0f allocs over 10 entries, %.0f over 1,000", cold[0], cold[1])
	}
}

// TestPrivilegedOpsPerJob pins the §5.2 accounting `examples/gramjob`
// checks: what a job costs in root-privileged operations in each
// architecture. Reading the mapfile through the view is charged exactly
// as reading it was.
func TestPrivilegedOpsPerJob(t *testing.T) {
	b := newGramBed(t)
	for _, want := range []int{3, 3} { // cold: the Starter's setuid, GRIM's read and setuid; warm: none
		if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
			t.Fatal(err)
		}
		if got := b.res.Sys.Audit().PrivilegedOps; got != want {
			t.Fatalf("GT3 privileged ops = %d, want %d", got, want)
		}
	}

	res2, aliceProxy, _ := newGT2Bed(t)
	for job := 1; job <= 2; job++ {
		if _, err := SubmitSigned(res2, aliceProxy, JobDescription{Executable: JobProgram}); err != nil {
			t.Fatal(err)
		}
		// Per job: verification (3), the mapfile read and the fork in the
		// gatekeeper; the job manager's setuid.
		if got := res2.Sys.Audit().PrivilegedOps; got != 6*job {
			t.Fatalf("GT2 privileged ops after %d jobs = %d, want %d", job, got, 6*job)
		}
	}
}

// TestSignatureChecksPerJob pins what a cold job costs the resource's
// trust store in certificate-signature checks. MMJFS, the LMJFS, the MJS
// acceptor and the delegation endpoint each validate the user's chain for
// themselves, but the store checks a link's signature once: a first-time
// user's job with delegation costs it their certificate, their proxy and
// the proxy they delegate; their next proxy does not pay for the user
// again. The requestor validates the resource on a store of its own, so
// none of this is the client's work. The GT2 gatekeeper, which validates
// once per job anyway, gains the same across jobs.
func TestSignatureChecksPerJob(t *testing.T) {
	b := newGramBed(t)
	b.client.Trust = gridcert.NewTrustStore()
	if err := b.client.Trust.AddRoot(b.auth.Certificate()); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name     string
		newProxy bool
		want     uint64
	}{
		{"a first-time user's job", false, 3},
		{"the user's next proxy", true, 2},
		{"the same proxy again", false, 1}, // the newly delegated proxy
	} {
		if step.newProxy {
			p, err := proxy.New(b.alice, proxy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b.client.Credential = p
		}
		before := b.trust.SignatureStats().Checks
		if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
			t.Fatal(err)
		}
		if got := b.trust.SignatureStats().Checks - before; got > step.want {
			t.Errorf("%s: %d signature checks on the resource's store, want <= %d", step.name, got, step.want)
		}
	}

	res2, aliceProxy, trust2 := newGT2Bed(t)
	for job, want := range []uint64{2, 0} {
		before := trust2.SignatureStats().Checks
		if _, err := SubmitSigned(res2, aliceProxy, JobDescription{Executable: JobProgram}); err != nil {
			t.Fatal(err)
		}
		if got := trust2.SignatureStats().Checks - before; got != want {
			t.Errorf("GT2 gatekeeper job %d: %d signature checks, want %d", job+1, got, want)
		}
	}
}

// --- chain verification scope ----------------------------------------------

// TestChainValidatedOncePerHostingEnvironment: MMJFS validating the
// user's chain does not vouch for it to the LMJFS, which walks it again in
// the user's account, as does the MJS acceptor — nothing in this package
// holds a verdict to hand across. What the three share is the host's trust
// store, and what that remembers is arithmetic: each link's signature is
// checked on the curve once, by whichever environment meets it first.
func TestChainValidatedOncePerHostingEnvironment(t *testing.T) {
	b := newGramBed(t)
	b.client.Trust = gridcert.NewTrustStore() // the requestor's checks are not the resource's
	if err := b.client.Trust.AddRoot(b.auth.Certificate()); err != nil {
		t.Fatal(err)
	}
	links := uint64(len(b.client.Credential.Chain)) // the proxy and the user
	job := testJob()
	job.DelegateCredential = false

	delta := func(since gridcert.SignatureStats) (checks, hits uint64) {
		st := b.trust.SignatureStats()
		return st.Checks - since.Checks, st.MemoHits - since.MemoHits
	}
	start := b.trust.SignatureStats()
	h, err := b.client.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if checks, hits := delta(start); checks != links || hits != links {
		t.Fatalf("cold submit: %d signature checks, %d memo hits; want %d (MMJFS) and %d (the LMJFS's own walk)", checks, hits, links, links)
	}
	submitted := b.trust.SignatureStats()
	if _, err := b.client.Run(h); err != nil {
		t.Fatal(err)
	}
	if checks, hits := delta(submitted); checks != 0 || hits != links {
		t.Fatalf("run: %d signature checks, %d memo hits; want 0 and %d (the MJS acceptor's own walk)", checks, hits, links)
	}
}

// expiredProxy is a proxy of cred that lapsed an hour ago.
func expiredProxy(t testing.TB, cred *gridcert.Credential) *gridcert.Credential {
	t.Helper()
	key, err := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	leaf := cred.Leaf()
	cert, err := gridcert.Sign(gridcert.Template{
		SerialNumber: 42,
		Type:         gridcert.TypeProxy,
		Subject:      leaf.Subject.WithCN("proxy-42"),
		NotBefore:    time.Now().Add(-2 * time.Hour),
		NotAfter:     time.Now().Add(-time.Hour),
		KeyUsage:     leaf.KeyUsage,
		Proxy:        &gridcert.ProxyInfo{Variant: gridcert.ProxyImpersonation, PathLenConstraint: -1},
	}, key.Public(), leaf.Subject, cred.Key)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gridcert.NewCredential(append([]*gridcert.Certificate{cert}, cred.Chain...), key)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMJSValidatesChainsLMJFSNeverSaw: the LMJFS having admitted one
// chain of a user says nothing about another. Each gets the full
// validation at the MJS acceptor, and the refusal it has coming.
func TestMJSValidatesChainsLMJFSNeverSaw(t *testing.T) {
	b := newGramBed(t)
	h, err := b.client.Submit(testJob())
	if err != nil {
		t.Fatal(err)
	}
	connect := func(cred *gridcert.Credential) error {
		_, err := (&Client{Credential: cred, Trust: b.trust, Resource: b.res}).Run(h)
		return err
	}
	limited, err := proxy.New(b.alice, proxy.Options{Variant: gridcert.ProxyLimited})
	if err != nil {
		t.Fatal(err)
	}
	if err := connect(limited); !errors.Is(err, gridcert.ErrLimitedProxy) {
		t.Fatalf("limited proxy at the MJS: %v", err)
	}
	if err := connect(expiredProxy(t, b.alice)); !errors.Is(err, gridcert.ErrExpired) {
		t.Fatalf("expired proxy at the MJS: %v", err)
	}
	other, err := proxy.New(b.alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := connect(other); err != nil {
		t.Fatalf("another proxy of the owner: %v", err)
	}
}

// TestRevocationBetweenSubmitAndRun: a CRL installed after the LMJFS has
// validated the user's chain is consulted by the MJS handshake, which
// refuses the now revoked user although every link is in the memo.
func TestRevocationBetweenSubmitAndRun(t *testing.T) {
	b := newGramBed(t)
	h, err := b.client.Submit(testJob())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.auth.Revoke(b.alice.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	crl, err := b.auth.CRL()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.trust.AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	if _, err := b.client.Run(h); !errors.Is(err, gridcert.ErrRevoked) {
		t.Fatalf("run by a user revoked since submit: %v", err)
	}
}

// TestSubmitWarm1kAllocs holds a Submit routed to a running LMJFS over a
// 1,000-entry mapfile to an exact ceiling: one O(mapfile) step in the
// router or the LMJFS is thousands over it.
func TestSubmitWarm1kAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; exactness only holds in plain builds")
	}
	bed, _ := bedWithMapfile(t, 999, 0)
	desc := testJob()
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := bed.client.Submit(desc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 120 {
		t.Fatalf("warm submit over a 1,000-entry mapfile allocates %.0f/op, want <= 120", allocs)
	}
}
