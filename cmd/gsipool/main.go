// Command gsipool demonstrates the session pool end to end: it stands
// up a live secured server on loopback, hammers it through one Client
// from many goroutines, and prints how far the pool amortized the
// public-key handshake — the paper's WS-SecureConversation argument
// (§5.1) as a command-line experiment.
//
// Usage:
//
//	gsipool [-transport gt2|gt3] [-requests N] [-workers N]
//	        [-pool] [-pool-max-idle N] [-pool-idle-ttl D] [-pool-max-per-host N]
//
// Run it with and without -pool to see the difference; with gt3, watch
// the resumes column when the idle TTL is shorter than the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/gsi"
)

func main() {
	log.SetFlags(0)
	transport := flag.String("transport", "gt2", "transport: gt2 (raw sockets) or gt3 (SOAP/HTTP)")
	requests := flag.Int("requests", 200, "total exchanges to perform")
	workers := flag.Int("workers", 8, "concurrent goroutines sharing the client")
	usePool := flag.Bool("pool", true, "enable the session pool")
	maxIdle := flag.Int("pool-max-idle", gsi.DefaultMaxIdle, "idle sessions parked per key")
	idleTTL := flag.Duration("pool-idle-ttl", gsi.DefaultIdleTTL, "how long an idle session stays reusable")
	maxPerHost := flag.Int("pool-max-per-host", gsi.DefaultMaxConcurrentPerHost, "live-session cap per key")
	flag.Parse()

	var tr gsi.Transport
	switch *transport {
	case "gt2":
		tr = gsi.TransportGT2()
	case "gt3":
		tr = gsi.TransportGT3()
	default:
		log.Fatalf("unknown transport %q", *transport)
	}

	// A one-CA world with a live server on loopback.
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
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host pool"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	server, err := env.NewServer(host, gsi.WithTransport(tr))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()

	clientOpts := []gsi.Option{gsi.WithTransport(tr)}
	if *usePool {
		pool, err := gsi.NewSessionPool(
			gsi.WithMaxIdle(*maxIdle),
			gsi.WithIdleTTL(*idleTTL),
			gsi.WithMaxConcurrentPerHost(*maxPerHost),
		)
		if err != nil {
			log.Fatal(err)
		}
		defer pool.Close()
		clientOpts = append(clientOpts, gsi.WithSessionPool(pool))
	}
	client, err := env.NewClient(alice, clientOpts...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hammering %s over %s: %d exchanges, %d workers, pool=%v\n",
		ep.Addr(), tr, *requests, *workers, *usePool)

	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	perWorker := (*requests + *workers - 1) / *workers
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := []byte("gsipool payload")
			for i := 0; i < perWorker; i++ {
				if done.Add(1) > int64(*requests) {
					return
				}
				if _, err := client.Exchange(ctx, ep.Addr(), "echo", payload); err != nil {
					log.Fatalf("exchange: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	n := min(done.Load(), int64(*requests))
	fmt.Printf("completed %d exchanges in %v (%.0f/s, mean %v)\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(),
		(elapsed / time.Duration(n)).Round(time.Microsecond))
	if p := client.Pool(); p != nil {
		st := p.Stats()
		fmt.Printf("pool: handshakes=%d hits=%d resumes=%d evictions=%d poisoned=%d\n",
			st.Dials, st.Hits, st.Resumes, st.Evictions, st.Poisoned)
		fmt.Printf("amortization: %.1f exchanges per handshake\n", float64(n)/float64(max(st.Dials, 1)))
	} else {
		fmt.Printf("no pool: every exchange paid a full handshake (%d handshakes)\n", n)
	}
	ss := env.Trust().SignatureStats()
	fmt.Printf("certificate signatures: checked=%d remembered=%d (memo hits=%d rotations=%d)\n", ss.Checks, ss.Entries, ss.MemoHits, ss.Rotations)
}
