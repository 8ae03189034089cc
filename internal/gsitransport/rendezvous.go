package gsitransport

import (
	"errors"
	"sync"
	"time"
)

// Stripe rendezvous: the K connections of one striped transfer arrive
// on a server independently, each on its own serve goroutine, and must
// be collected into one group before the transfer can run. A group is
// named by an opaque transfer token — unguessable, chosen by whoever
// opens the group — and bound to the authenticated identity that opened
// it, so a leaked token is useless without the credential. Each
// connection joins under its stripe index and is then told so; the group
// is complete when every index is taken and every join reply has been
// handed to its socket — not before, or whoever runs the transfer could
// write DATA on a lane ahead of (or into the middle of) that lane's own
// reply. Whoever opened the group Awaits that and runs the transfer.
// From its Join until the group's Close a connection belongs to the
// group: its serve goroutine parks in Wait and must not read, write or
// close it.

// StripeJoinTimeout bounds how long a forming group waits for its
// remaining stripes: a peer that dies between joins must not park serve
// goroutines forever. Servers pass it to NewRendezvous.
const StripeJoinTimeout = 10 * time.Second

// maxFormingGroups bounds concurrently forming groups per rendezvous so
// a hostile peer cannot park unbounded serve goroutines.
const maxFormingGroups = 256

// Join and Open refusals. The texts travel to the peer.
var (
	ErrTooManyGroups   = errors.New("gsitransport: too many forming stripe groups")
	ErrUnknownToken    = errors.New("gsitransport: unknown transfer token")
	ErrTokenIdentity   = errors.New("gsitransport: transfer token bound to another identity")
	ErrBadStripeIndex  = errors.New("gsitransport: bad stripe index")
	ErrDuplicateStripe = errors.New("gsitransport: duplicate stripe index")
	errTokenForming    = errors.New("gsitransport: transfer token already names a forming group")
)

// StripeGroup is one striped transfer forming, or running, on a server.
type StripeGroup struct {
	// Conns holds the group's connections by stripe index. It is
	// complete, and the caller's to run a transfer over, once Await
	// reported true.
	Conns []*Conn

	token    string
	identity string
	replied  int // stripes seated whose join reply has been sent
	failed   bool
	ready    chan struct{} // closed when every stripe has joined and been told so
	done     chan struct{} // closed by Close, or when the group is abandoned
}

// Close ends a complete group's tenure over its connections: every
// serve goroutine parked in Wait gets its connection back. Whoever runs
// the transfer calls it exactly once, after Stream.Finish.
func (g *StripeGroup) Close() { close(g.done) }

// Rendezvous is a server's set of forming stripe groups.
type Rendezvous struct {
	timeout time.Duration

	mu      sync.Mutex
	forming map[string]*StripeGroup // by token; a group leaves when complete or abandoned
}

// NewRendezvous returns an empty rendezvous whose groups wait timeout
// (StripeJoinTimeout outside tests) for their stripes.
func NewRendezvous(timeout time.Duration) *Rendezvous {
	return &Rendezvous{timeout: timeout, forming: make(map[string]*StripeGroup)}
}

// Open creates the group named token, bound to identity, for count
// stripes. Its caller minted token fresh for this one transfer, so a
// token already forming is refused.
func (r *Rendezvous) Open(identity, token string, count int) (*StripeGroup, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch g := r.forming[token]; {
	case g != nil && g.identity != identity:
		return nil, ErrTokenIdentity
	case g != nil:
		return nil, errTokenForming
	case len(r.forming) >= maxFormingGroups:
		return nil, ErrTooManyGroups
	}
	g := &StripeGroup{
		Conns:    make([]*Conn, count),
		token:    token,
		identity: identity,
		ready:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	r.forming[token] = g
	return g, nil
}

// Join binds conn into the forming group named token as stripe idx and
// then runs reply, which tells the peer so over conn — outside the lock,
// and before the stripe counts toward completion: a group is complete
// only once every stripe's reply is out, so no reply can share its
// connection with the transfer. A refused Join does not run reply. Every
// arrival then parks in Wait — also one whose group was abandoned while
// it replied; Wait reports that.
func (r *Rendezvous) Join(identity, token string, idx int, conn *Conn, reply func()) (g *StripeGroup, err error) {
	r.mu.Lock()
	g = r.forming[token]
	switch {
	case g == nil:
		err = ErrUnknownToken
	case g.identity != identity:
		err = ErrTokenIdentity
	case idx < 0 || idx >= len(g.Conns):
		err = ErrBadStripeIndex
	case g.Conns[idx] != nil:
		err = ErrDuplicateStripe
	default:
		g.Conns[idx] = conn
	}
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	reply()
	r.mu.Lock()
	defer r.mu.Unlock()
	if g.failed {
		return g, nil
	}
	if g.replied++; g.replied == len(g.Conns) {
		delete(r.forming, token)
		close(g.ready)
	}
	return g, nil
}

// abandon fails a group whose stripes did not all arrive and reply in
// time, releasing every stripe parked on it — unless the group completed
// first: the race with the final Join is settled under the rendezvous
// lock, and a complete group is left to run.
func (r *Rendezvous) abandon(g *StripeGroup) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g.complete() || g.failed {
		return
	}
	g.failed = true
	delete(r.forming, g.token)
	close(g.done)
}

// complete reports whether every stripe has joined and been told so.
// Once the group has left the rendezvous (final Join, or abandon) the
// answer is final.
func (g *StripeGroup) complete() bool {
	select {
	case <-g.ready:
		return true
	default:
		return false
	}
}

// Await blocks until g is complete (true) or abandoned (false),
// abandoning it itself when the join timeout passes first.
func (r *Rendezvous) Await(g *StripeGroup) bool {
	timer := time.NewTimer(r.timeout)
	defer timer.Stop()
	select {
	case <-g.ready:
	case <-g.done: // abandoned by another waiter, or already run and closed
	case <-timer.C:
		r.abandon(g)
	}
	return g.complete()
}

// Wait parks a joined stripe's serve goroutine until the group no
// longer owns its connection. It reports true when the transfer ran
// (the connection's state is whatever Stream.Finish left) and false
// when the group was abandoned before it ever started.
func (r *Rendezvous) Wait(g *StripeGroup) bool {
	if !r.Await(g) {
		return false
	}
	<-g.done
	return true
}
