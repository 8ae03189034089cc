package gsi

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/gridcrypto"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Striped streams: one logical byte stream fanned over K secured GT2
// sessions, the facade form of GridFTP's parallel stripes. Each stripe
// is an ordinary pooled session — the handshake amortization of the
// pool applies per stripe — and each stripe seals/opens on its own
// connection, so K stripes drive up to K cores through the record
// layer. The data plane is the same internal/gsitransport Stream a
// single-session stream uses, built over K connections instead of one:
// globally sequenced DATA chunks dealt round-robin, and a FIN trailer
// carrying the total chunk count on every stripe, so a stripe that dies
// mid-flight is always an error, never a silently truncated transfer.

// stripedOpenOp binds one session into a striped stream. Its body
// carries (op, group id, stripe index, stripe count); the server
// authorizes op per stripe and collects the group's connections until
// all count stripes arrived (gsitransport.Rendezvous), then runs the
// StreamHandler over them.
const stripedOpenOp = reservedOpPrefix + "stream.sopen"

// maxStripes bounds the stripe count a client may request and a server
// will grant.
const maxStripes = 16

// OpenStripedStream opens a stream for op fanned over k stripes: it
// checks k sessions out (from the pool on a pooling client), binds them
// into one group on the server, and returns a Stream whose bytes travel
// over all stripes in parallel, each stripe sealing and writing on its
// own connection. With k = 1 it is exactly OpenStream. Striping requires
// the GT2 transport — GT3 carries chunks as calls and has no connection
// to stripe over.
func (c *Client) OpenStripedStream(ctx context.Context, endpoint, op string, k int) (Stream, error) {
	const opName = "gsi.Client.OpenStripedStream"
	if k < 1 || k > maxStripes {
		return nil, opErr(opName, fmt.Errorf("gsi: stripe count %d outside [1,%d]", k, maxStripes))
	}
	if k == 1 {
		return c.OpenStream(ctx, endpoint, op)
	}
	if op == "" || strings.HasPrefix(op, reservedOpPrefix) {
		return nil, opErr(opName, fmt.Errorf("gsi: invalid stream op %q", op))
	}
	if c.base.transport.String() != "gt2" {
		return nil, opErr(opName, fmt.Errorf("%w: striping requires the GT2 transport", errStreamsUnsupported))
	}
	if p := c.base.pool; p != nil {
		// All K checkouts are held at once: a per-host cap below K would
		// queue the surplus checkout behind sessions only this call can
		// return.
		if p.maxPerHost > 0 && k > p.maxPerHost {
			return nil, &Error{Op: opName, Kind: ErrPoolExhausted,
				Err: fmt.Errorf("gsi: %d stripes exceed the pool's per-host cap of %d", k, p.maxPerHost)}
		}
		// And one open collects its K at a time: two opens interleaving
		// their checkouts under a cap below 2K would each hold part and
		// wait for the rest until their contexts end. Transfers overlap;
		// only the collecting is serialized.
		done, err := p.beginGather(ctx, c.poolKey(endpoint, c.credential()))
		if err != nil {
			return nil, opErr(opName, err)
		}
		defer done()
	}
	group, err := gridcrypto.RandomBytes(16)
	if err != nil {
		return nil, opErr(opName, err)
	}
	// One root span covers the whole transfer; each stripe gets a lane
	// child whose context crosses on that stripe's open, so the server's
	// per-lane spans join the same trace.
	var (
		sp    *trace.Span
		lanes []*trace.Span
	)
	if tr := c.base.tracer; tr != nil {
		sp = tr.StartRoot("client.stream")
	}
	var (
		owners  []Session     // checkouts to release at Close
		members []*gt2Session // sessions locked and bound into the group
	)
	cleanup := func() {
		// Members are mid-group on the server: break their connections so
		// the server's group wait fails fast and the pool discards them
		// instead of parking half-open stripes.
		for _, m := range members {
			m.conn.Close()
			m.mu.Unlock()
		}
		for _, o := range owners {
			o.Close()
		}
		for _, lane := range lanes {
			lane.End()
		}
		sp.End()
	}
	for i := 0; i < k; i++ {
		lctx := ctx
		var lane *trace.Span
		if sp != nil {
			lane = sp.StartChild("client.stripe")
			lanes = append(lanes, lane)
			lctx = trace.ContextWithSpan(ctx, lane)
		}
		sess, err := c.Connect(lctx, endpoint)
		if err != nil {
			sp.SetError(err)
			cleanup()
			return nil, opErr(opName, err)
		}
		owners = append(owners, sess)
		g := gt2SessionOf(sess)
		if g == nil {
			err := fmt.Errorf("%w: striping requires GT2 sessions", errStreamsUnsupported)
			sp.SetError(err)
			cleanup()
			return nil, opErr(opName, err)
		}
		lane.SetPeer(peerDNOf(g.conn.Peer()))
		body := wire.NewEncoder().Str(op).Bytes(group).U32(uint32(i)).U32(uint32(k)).Finish()
		g.mu.Lock()
		_, buf, err := g.roundTrip(lctx, stripedOpenOp, body)
		if err != nil {
			g.mu.Unlock()
			sp.SetError(err)
			cleanup()
			return nil, opErr(opName, err)
		}
		buf.Free()
		members = append(members, g)
	}
	var out Stream = newGT2Stream(ctx, members, owners)
	if sp != nil {
		dn := peerDNOf(members[0].conn.Peer())
		sp.SetPeer(dn)
		ts := newTracedStream(out, sp, "client")
		ts.lanes = lanes
		ts.xfer = c.base.tracer.Transfers().Begin("sopen:"+op, dn, k, sp.Context().TraceID)
		out = ts
	}
	return out, nil
}

// gt2SessionOf unwraps a facade Session to the GT2 session holding the
// transport connection, through any pool wrapper.
func gt2SessionOf(s Session) *gt2Session {
	for {
		switch v := s.(type) {
		case *gt2Session:
			return v
		case *pooledSession:
			s = v.sess
		default:
			return nil
		}
	}
}
