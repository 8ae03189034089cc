package gsitransport

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// noReply is the join reply of a stripe with no peer to tell.
func noReply() {}

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
			r.Open(alice, "tok", 3)
			r.Join(alice, "tok", 1, &Conn{}, noReply)
			_, err := r.Join(alice, "tok", 1, &Conn{}, noReply)
			return err
		}, ErrDuplicateStripe},
		{"index out of range", func(r *Rendezvous) error {
			r.Open(alice, "tok", 3)
			_, err := r.Join(alice, "tok", 3, &Conn{}, noReply)
			return err
		}, ErrBadStripeIndex},
		{"open under another identity's token", func(r *Rendezvous) error {
			r.Open(alice, "tok", 3)
			_, err := r.Open(bob, "tok", 3)
			return err
		}, ErrTokenIdentity},
		{"join under another identity's token", func(r *Rendezvous) error {
			r.Open(alice, "tok", 3)
			_, err := r.Join(bob, "tok", 0, &Conn{}, noReply)
			return err
		}, ErrTokenIdentity},
		{"unknown token", func(r *Rendezvous) error {
			_, err := r.Join(alice, "never-opened", 0, &Conn{}, noReply)
			return err
		}, ErrUnknownToken},
		{"token of a completed group", func(r *Rendezvous) error {
			r.Open(alice, "tok", 1)
			r.Join(alice, "tok", 0, &Conn{}, noReply)
			_, err := r.Join(alice, "tok", 0, &Conn{}, noReply)
			return err
		}, ErrUnknownToken},
		{"forming-group bound", func(r *Rendezvous) error {
			for i := 0; i < maxFormingGroups; i++ {
				if _, err := r.Open(alice, fmt.Sprint("tok", i), 2); err != nil {
					return fmt.Errorf("group %d under the bound: %w", i, err)
				}
			}
			_, err := r.Open(alice, "one too many", 2)
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
		r.Open("id", fmt.Sprint("tok", i), 1)
	}
	g, err := r.Join("id", "tok0", 0, &Conn{}, noReply)
	if err != nil || !r.Await(g) {
		t.Fatalf("completing join: %v", err)
	}
	if _, err := r.Open("id", "fresh", 1); err != nil {
		t.Fatalf("slot not freed by completion: %v", err)
	}
}

// An incomplete group is abandoned at the join timeout, by whichever
// waiter gets there first, and that releases every stripe parked on it.
func TestRendezvousAbandonReleasesParkedStripes(t *testing.T) {
	r := NewRendezvous(20 * time.Millisecond)
	g, err := r.Open("id", "tok", 3)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan bool, 2)
	for idx := 0; idx < 2; idx++ {
		jg, err := r.Join("id", "tok", idx, &Conn{}, noReply)
		if err != nil || jg != g {
			t.Fatalf("join %d: %v", idx, err)
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
	if _, err := r.Join("id", "tok", 2, &Conn{}, noReply); !errors.Is(err, ErrUnknownToken) {
		t.Fatalf("late join of an abandoned group: %v", err)
	}
}

// The final Join races the join timeout. Whichever wins, everyone
// agrees: either the group completed — the coordinator's Await reports
// it, and both stripes stay parked until Close and are told the
// transfer ran — or it was abandoned, and the late Join is refused, or
// was seated but abandoned before it counted (its Wait says so). Run
// under -race -count=50.
func TestRendezvousFinalJoinRacesTimeout(t *testing.T) {
	const timeout = 2 * time.Millisecond
	outcomes := map[string]int{}
	for round := 0; round < 20; round++ {
		r := NewRendezvous(timeout)
		g, _ := r.Open("id", "tok", 2)
		if _, err := r.Join("id", "tok", 0, &Conn{}, noReply); err != nil {
			t.Fatal(err)
		}
		ready := make(chan bool, 1)
		go func() { ready <- r.Await(g) }()
		parked := make(chan bool, 2)
		go func() { parked <- r.Wait(g) }()
		// Sweep the final Join across the moment the timeout fires.
		time.Sleep(timeout/2 + time.Duration(round)*timeout/20)
		jg, err := r.Join("id", "tok", 1, &Conn{}, noReply)
		switch {
		case err == nil:
			if jg != g {
				t.Fatal("final join seated in another group")
			}
			go func() { parked <- r.Wait(jg) }()
			if !<-ready {
				// abandon landed between the final Join's seat and its count.
				outcomes["abandoned while seating"]++
				for i := 0; i < 2; i++ {
					if <-parked {
						t.Fatal("group abandoned, but a parked stripe was told the transfer ran")
					}
				}
				break
			}
			outcomes["completed"]++
			select {
			case <-parked:
				t.Fatal("stripe of a complete group released before Close")
			case <-time.After(2 * timeout):
			}
			g.Close()
			for i := 0; i < 2; i++ {
				if !<-parked {
					t.Fatal("group completed, but a parked stripe was told it was abandoned")
				}
			}
		case errors.Is(err, ErrUnknownToken):
			outcomes["refused"]++
			if <-ready {
				t.Fatal("coordinator saw a group whose final join was refused as complete")
			}
			if <-parked {
				t.Fatal("group abandoned, but its parked stripe was told the transfer ran")
			}
		default:
			t.Fatalf("final join: %v", err)
		}
	}
	t.Logf("outcomes over the sweep: %v", outcomes)
}

// A group is complete only once every stripe's join reply is out: a
// stripe that is seated but still replying — at any position in the
// arrival order — holds Await back, so the transfer cannot write on its
// connection while the reply is still to come. Run under -race -count=50.
func TestRendezvousHoldsBackUntilEveryReplyIsOut(t *testing.T) {
	const k = 4
	for slow := 0; slow < k; slow++ {
		t.Run(fmt.Sprint("position ", slow), func(t *testing.T) {
			r := NewRendezvous(time.Minute)
			g, err := r.Open("id", "tok", k)
			if err != nil {
				t.Fatal(err)
			}
			ready := make(chan bool, 1)
			go func() { ready <- r.Await(g) }()
			replying, release := make(chan struct{}), make(chan struct{})
			joined := make(chan struct{}, k)
			join := func(idx int, reply func()) {
				if _, err := r.Join("id", "tok", idx, &Conn{}, reply); err != nil {
					t.Errorf("join %d: %v", idx, err)
				}
				joined <- struct{}{}
			}
			// Stripes arrive in index order; the slow one parks inside its
			// reply until released, the others reply at once.
			for idx := 0; idx < k; idx++ {
				if idx == slow {
					go join(idx, func() { close(replying); <-release })
					<-replying
				} else {
					join(idx, noReply)
				}
			}
			select {
			case <-ready:
				t.Fatal("group released while a seated stripe's reply was still to come")
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if !<-ready {
				t.Fatal("group abandoned although every stripe joined and replied")
			}
			for i := 0; i < k; i++ {
				<-joined
			}
		})
	}
}

// The join timeout covers the replies too: a group abandoned while a
// seated stripe was still replying stays abandoned, and that stripe
// learns it from Wait like any other.
func TestRendezvousAbandonedWhileReplying(t *testing.T) {
	r := NewRendezvous(10 * time.Millisecond)
	g, err := r.Open("id", "tok", 1)
	if err != nil {
		t.Fatal(err)
	}
	jg, err := r.Join("id", "tok", 0, &Conn{}, func() {
		if r.Await(g) {
			t.Error("group complete before its only stripe had replied")
		}
	})
	if err != nil || jg != g {
		t.Fatalf("join of a group abandoned mid-reply: %v", err)
	}
	if r.Wait(g) {
		t.Fatal("stripe of an abandoned group told its transfer ran")
	}
	if _, err := r.Open("id", "tok", 1); err != nil {
		t.Fatalf("abandoned group still holds its token: %v", err)
	}
}
