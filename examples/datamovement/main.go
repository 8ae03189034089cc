// Data movement: GridFTP over the GT2 secured transport, including the
// third-party transfer that made GSI delegation famous — Alice directs
// the source server to push a dataset to the destination server, with
// the source authenticating to the destination *as Alice* using a
// credential she delegated. Her long-term key never leaves her machine;
// the data never passes through her. The PKI world is assembled through
// the handle-based gsi API.
//
// Transfers stream through the pooled secure record layer in 256 KiB
// chunk records — the dataset below is larger than the old 16 MiB
// whole-message cap, which no longer exists.
//
//	go run ./examples/datamovement
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/authz"
	"repro/internal/gridftp"
	"repro/pkg/gsi"
)

func main() {
	log.SetFlags(0)

	authority, err := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	srcHost, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host storage-a"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	dstHost, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host storage-b"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}

	// Both stores allow Alice full access; Bob gets read on /shared only.
	policy := authz.NewPolicy(authz.DenyOverrides).Add(
		authz.Rule{
			Effect:   authz.EffectPermit,
			Subjects: []string{"/O=Grid/CN=Alice"},
			Actions:  []string{"read", "write", "delete", "list"},
		},
	)
	trust := env.Trust()
	src, err := gridftp.NewServer("127.0.0.1:0", gridftp.NewStore(policy), srcHost, trust)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	dst, err := gridftp.NewServer("127.0.0.1:0", gridftp.NewStore(policy), dstHost, trust)
	if err != nil {
		log.Fatal(err)
	}
	defer dst.Close()
	fmt.Printf("servers: %s (%s), %s (%s)\n", src.Addr(), src.Identity().CommonName(), dst.Addr(), dst.Identity().CommonName())

	// Alice uploads a dataset to the source with her proxy (single
	// sign-on over a mutually authenticated, encrypted channel).
	aliceClient, err := env.NewClient(alice)
	if err != nil {
		log.Fatal(err)
	}
	aliceProxy, err := aliceClient.Proxy(gsi.ProxyOptions{Lifetime: time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	conn, err := gridftp.Dial(src.Addr(), aliceProxy, trust, src.Identity())
	if err != nil {
		log.Fatal(err)
	}
	dataset := make([]byte, 20<<20) // beyond the old 16 MiB whole-message cap
	for i := range dataset {
		dataset[i] = byte(i)
	}
	start := time.Now()
	n, err := conn.PutFrom("/exp/run-42", bytes.NewReader(dataset))
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("streamed %d MiB upload in %v (%.0f MiB/s, 256 KiB records)\n",
		n>>20, elapsed.Round(time.Microsecond), float64(n)/(1<<20)/elapsed.Seconds())
	names, err := conn.List("/exp/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("source listing:", names)
	conn.Close()

	// Third-party transfer: Alice (the orchestrator) never touches the
	// data; the source authenticates to the destination with a credential
	// she delegates for this purpose. The copy streams source chunks
	// straight into destination chunks — the file is never materialized
	// in the orchestrating process.
	start = time.Now()
	if err := gridftp.ThirdPartyTransfer(aliceProxy, trust,
		src.Addr(), src.Identity(),
		dst.Addr(), dst.Identity(),
		"/exp/run-42", "/replica/run-42"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("third-party streamed transfer completed in %v\n", time.Since(start).Round(time.Microsecond))

	// Verify at the destination, streaming the replica back.
	check, err := gridftp.Dial(dst.Addr(), aliceProxy, trust, dst.Identity())
	if err != nil {
		log.Fatal(err)
	}
	defer check.Close()
	var replica bytes.Buffer
	if _, err := check.GetTo("/replica/run-42", &replica); err != nil {
		log.Fatal(err)
	}
	identical := bytes.Equal(replica.Bytes(), dataset)
	fmt.Printf("replica verified: %d bytes, identical=%v\n", replica.Len(), identical)
	if !identical {
		log.Fatalf("replica differs from the dataset: %d bytes, want %d", replica.Len(), len(dataset))
	}
}
