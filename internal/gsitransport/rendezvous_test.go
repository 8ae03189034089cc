package gsitransport

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Every refusal the rendezvous can give, each on a fresh instance. The
// connections are opaque to the rendezvous, so bare values do.
func TestRendezvousRefusals(t *testing.T) {
	const alice, bob = "/O=Grid/CN=Alice", "/O=Grid/CN=Bob"
	cases := []struct {
		name string
		run  func(r *Rendezvous) error
		want error
	}{
		{"duplicate index", func(r *Rendezvous) error {
			r.Open(alice, "tok", 3, "put")
			r.Join(alice, "tok", 1, &Conn{})
			_, _, err := r.Join(alice, "tok", 1, &Conn{})
			return err
		}, ErrDuplicateStripe},
		{"index out of range", func(r *Rendezvous) error {
			r.Open(alice, "tok", 3, "put")
			_, _, err := r.Join(alice, "tok", 3, &Conn{})
			return err
		}, ErrBadStripeIndex},
		{"count disagreement", func(r *Rendezvous) error {
			r.Open(alice, "tok", 3, "put")
			_, err := r.Open(alice, "tok", 4, "put")
			return err
		}, ErrStripeCount},
		{"op disagreement", func(r *Rendezvous) error {
			r.Open(alice, "tok", 3, "put")
			_, err := r.Open(alice, "tok", 3, "get")
			return err
		}, ErrStripeOp},
		{"open under another identity's token", func(r *Rendezvous) error {
			r.Open(alice, "tok", 3, "put")
			_, err := r.Open(bob, "tok", 3, "put")
			return err
		}, ErrTokenIdentity},
		{"join under another identity's token", func(r *Rendezvous) error {
			r.Open(alice, "tok", 3, "put")
			_, _, err := r.Join(bob, "tok", 0, &Conn{})
			return err
		}, ErrTokenIdentity},
		{"unknown token", func(r *Rendezvous) error {
			_, _, err := r.Join(alice, "never-opened", 0, &Conn{})
			return err
		}, ErrUnknownToken},
		{"token of a completed group", func(r *Rendezvous) error {
			r.Open(alice, "tok", 1, "put")
			r.Join(alice, "tok", 0, &Conn{})
			_, _, err := r.Join(alice, "tok", 0, &Conn{})
			return err
		}, ErrUnknownToken},
		{"forming-group bound", func(r *Rendezvous) error {
			for i := 0; i < maxFormingGroups; i++ {
				if _, err := r.Open(alice, fmt.Sprint("tok", i), 2, "put"); err != nil {
					return fmt.Errorf("group %d under the bound: %w", i, err)
				}
			}
			_, err := r.Open(alice, "one too many", 2, "put")
			return err
		}, ErrTooManyGroups},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(NewRendezvous(time.Minute)); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// A group leaves the forming set when it completes, so the bound counts
// forming groups only.
func TestRendezvousCompleteGroupFreesItsSlot(t *testing.T) {
	r := NewRendezvous(time.Minute)
	for i := 0; i < maxFormingGroups; i++ {
		r.Open("id", fmt.Sprint("tok", i), 1, "")
	}
	g, last, err := r.Join("id", "tok0", 0, &Conn{})
	if err != nil || !last || !r.Await(g) {
		t.Fatalf("completing join: last=%v err=%v", last, err)
	}
	if _, err := r.Open("id", "fresh", 1, ""); err != nil {
		t.Fatalf("slot not freed by completion: %v", err)
	}
}

// An incomplete group is abandoned at the join timeout, by whichever
// waiter gets there first, and that releases every stripe parked on it.
func TestRendezvousAbandonReleasesParkedStripes(t *testing.T) {
	r := NewRendezvous(20 * time.Millisecond)
	g, err := r.Open("id", "tok", 3, "")
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan bool, 2)
	for idx := 0; idx < 2; idx++ {
		jg, last, err := r.Join("id", "tok", idx, &Conn{})
		if err != nil || last || jg != g {
			t.Fatalf("join %d: last=%v err=%v", idx, last, err)
		}
		go func() { parked <- r.Wait(jg) }()
	}
	if r.Await(g) {
		t.Fatal("coordinator saw an incomplete group as ready")
	}
	for i := 0; i < 2; i++ {
		select {
		case ran := <-parked:
			if ran {
				t.Fatal("parked stripe told its transfer ran")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked stripe never released")
		}
	}
	if _, _, err := r.Join("id", "tok", 2, &Conn{}); !errors.Is(err, ErrUnknownToken) {
		t.Fatalf("late join of an abandoned group: %v", err)
	}
}

// The final Join races the join timeout. Whichever wins, everyone
// agrees: either the group completed — the parked stripe stays parked
// until Close and is told the transfer ran — or it was abandoned and
// the late Join is refused. Run under -race -count=50.
func TestRendezvousFinalJoinRacesTimeout(t *testing.T) {
	const timeout = 2 * time.Millisecond
	for round := 0; round < 20; round++ {
		r := NewRendezvous(timeout)
		g, _ := r.Open("id", "tok", 2, "")
		if _, _, err := r.Join("id", "tok", 0, &Conn{}); err != nil {
			t.Fatal(err)
		}
		parked := make(chan bool, 1)
		go func() { parked <- r.Wait(g) }()
		// Sweep the final Join across the moment the timeout fires.
		time.Sleep(timeout/2 + time.Duration(round)*timeout/20)
		_, last, err := r.Join("id", "tok", 1, &Conn{})
		switch {
		case err == nil && last:
			select {
			case <-parked:
				t.Fatal("stripe of a complete group released before Close")
			case <-time.After(2 * timeout):
			}
			g.Close()
			if !<-parked {
				t.Fatal("group completed, but its parked stripe was told it was abandoned")
			}
		case errors.Is(err, ErrUnknownToken):
			if <-parked {
				t.Fatal("group abandoned, but its parked stripe was told the transfer ran")
			}
		default:
			t.Fatalf("final join: last=%v err=%v", last, err)
		}
	}
}
