package gridftp

import (
	"encoding/binary"
	"errors"

	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
	"repro/internal/gsitransport"
	"repro/internal/gss"
)

// Parallel striped transfers, GridFTP's signature move (paper §3): the
// control connection negotiates a stripe count in the GETS/PUTS round
// trip, the client binds that many secured data connections — the ones
// its session kept from the last striped transfer, dialed ones for the
// rest — to the transfer with a JOIN carrying an unguessable token, and
// the file then crosses all stripes at once as globally sequenced
// chunks. Each stripe seals/opens on its own connection — K stripes
// drive up to K cores — and every stripe ends with a FIN trailer
// carrying the total chunk count, so a stripe that dies mid-flight is
// always an error, never a silently truncated file.

// opJoin binds a data connection to a pending striped transfer.
// Payload: 16-byte token + u32 stripe index.
const opJoin = "JOIN"

// maxTransferStripes caps the stripe count a server grants.
const maxTransferStripes = 16

// stripeTokenLen is the transfer token size: 128 unguessable bits.
const stripeTokenLen = 16

// stripeMarker prefixes a GETS/PUTS payload that requests striping
// (legacy payloads — empty, or the 8-byte PUT size hint — can never
// collide with the marked lengths).
const stripeMarker = 'S'

func encodeStripeGetReq(k int) []byte {
	p := make([]byte, 5)
	p[0] = stripeMarker
	binary.BigEndian.PutUint32(p[1:], uint32(k))
	return p
}

func decodeStripeGetReq(payload []byte) (k int, ok bool) {
	if len(payload) != 5 || payload[0] != stripeMarker {
		return 0, false
	}
	return int(binary.BigEndian.Uint32(payload[1:])), true
}

func encodeStripePutReq(k int, hint uint64) []byte {
	p := make([]byte, 13)
	p[0] = stripeMarker
	binary.BigEndian.PutUint32(p[1:], uint32(k))
	binary.BigEndian.PutUint64(p[5:], hint)
	return p
}

func decodeStripePutReq(payload []byte) (k int, hint uint64, ok bool) {
	if len(payload) != 13 || payload[0] != stripeMarker {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint32(payload[1:])), binary.BigEndian.Uint64(payload[5:]), true
}

func clampStripes(k int) int {
	if k < 1 {
		return 1
	}
	if k > maxTransferStripes {
		return maxTransferStripes
	}
	return k
}

// --- server side ---------------------------------------------------------

var (
	errMalformedGrant     = errors.New("gridftp: malformed stripe grant")
	errStripesNeverJoined = errors.New("gridftp: stripes never joined")
)

// invite acknowledges a GETS/PUTS and returns the connections the file
// crosses. Unstriped, that is the control connection after a bare OK.
// Striped, the OK carries a grant — min(k, cap) stripes, extra (the GET's
// size announcement), and a fresh transfer token bound to identity — and
// invite waits for that many JOINs; the caller must Close the returned
// group once its transfer is finished.
func (s *Server) invite(conn *gsitransport.Conn, identity gridcert.Name, path string, k int, striped bool, extra []byte) ([]*gsitransport.Conn, *gsitransport.StripeGroup, error) {
	if !striped {
		return []*gsitransport.Conn{conn}, nil, conn.Send(encodeReply(opOK, path, nil))
	}
	tok, err := gridcrypto.RandomBytes(stripeTokenLen)
	if err != nil {
		return nil, nil, err
	}
	granted := clampStripes(k)
	grp, err := s.stripes.Open(identity.String(), string(tok), granted)
	if err != nil {
		return nil, nil, err
	}
	grant := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(extra)+stripeTokenLen), uint32(granted))
	grant = append(append(grant, extra...), tok...)
	// A failed send needs no path of its own: a client that never saw the
	// grant never joins, and Await gives the group up.
	conn.Send(encodeReply(opOK, path, grant))
	if !s.stripes.Await(grp) {
		return nil, nil, errStripesNeverJoined
	}
	return grp.Conns, grp, nil
}

// serveJoin handles a JOIN on a data connection: decode the token and
// stripe index, bind the connection to its transfer, and park until the
// transfer releases it. Reports whether the connection is still usable.
func (s *Server) serveJoin(conn *gsitransport.Conn, identity gridcert.Name, payload []byte) bool {
	if len(payload) != stripeTokenLen+4 {
		return conn.Send(encodeReply(opErr, "", []byte("gridftp: malformed JOIN"))) == nil
	}
	idx := int(binary.BigEndian.Uint32(payload[stripeTokenLen:]))
	var replyErr error
	grp, err := s.stripes.Join(identity.String(), string(payload[:stripeTokenLen]), idx, conn, func() {
		replyErr = conn.Send(encodeReply(opOK, "", nil))
	})
	if err != nil {
		return conn.Send(encodeReply(opErr, "", []byte(err.Error()))) == nil
	}
	// The connection has belonged to the transfer since it joined: even
	// on a failed reply it must not be closed out from under it.
	s.stripes.Wait(grp)
	return replyErr == nil && !conn.Broken()
}

// --- client side ---------------------------------------------------------

// release settles the data connections of a striped transfer that has
// ended. After a clean one — Finish returned nil, a PUT's verdict was
// OK — each connection that is still Healthy is parked on the session
// for its next striped transfer; the rest are closed. Nothing else is
// kept: no timer runs over a parked lane, whose security context lapses
// with the credential that authenticated it, and Close closes them all.
func (c *Client) release(data []*gsitransport.Conn, clean bool) {
	for _, dc := range data {
		if !clean || !c.park(dc) {
			dc.Close()
		}
	}
}

func (c *Client) park(dc *gsitransport.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || !dc.Healthy() || len(c.parked) >= maxTransferStripes {
		return false
	}
	c.parked = append(c.parked, dc)
	return true
}

// dialStripes JOINs granted data connections to the transfer token
// names, aligned by stripe index: the session's parked lanes first, a
// dial for each one missing. Every JOIN is sent before the first reply
// is read, and the server binds a parked lane exactly as it binds a new
// one — the token must be the one it just granted, to this identity. A
// parked lane that turns out broken, lapsed, closed by the server since,
// or refused is closed and replaced by a dial. On failure every
// connection touched is closed, parked ones included, and the pending
// control-connection verdict (the server's join-timeout ERR) is consumed
// so the session stays synchronized.
func (c *Client) dialStripes(granted int, token []byte) ([]*gsitransport.Conn, error) {
	if granted < 1 || granted > maxTransferStripes || len(token) != stripeTokenLen {
		return nil, errMalformedGrant
	}
	conns := make([]*gsitransport.Conn, granted)
	var parked [maxTransferStripes]bool // conns[i] came off the session and may still be replaced
	c.mu.Lock()
	for i := 0; i < granted && len(c.parked) > 0; i++ {
		last := len(c.parked) - 1
		conns[i], parked[i], c.parked = c.parked[last], true, c.parked[:last]
	}
	c.mu.Unlock()

	// join sends lane i's JOIN, on a new connection when it has none.
	join := func(i int) error {
		if conns[i] == nil {
			dc, err := gsitransport.Dial(c.addr, gss.Config{
				Credential:   c.cred,
				TrustStore:   c.trust,
				ExpectedPeer: c.expectHost,
			})
			if err != nil {
				return err
			}
			conns[i] = dc
		}
		payload := binary.BigEndian.AppendUint32(append(make([]byte, 0, stripeTokenLen+4), token...), uint32(i))
		msg, err := encodeCmd(opJoin, "", payload)
		if err != nil {
			return err
		}
		return conns[i].Send(msg)
	}
	redial := func(i int) error {
		parked[i] = false
		conns[i].Close()
		conns[i] = nil
		return join(i)
	}
	fail := func(err error) ([]*gsitransport.Conn, error) {
		for _, dc := range conns {
			if dc != nil {
				dc.Close()
			}
		}
		// The server's control goroutine is waiting for the group; its
		// join timeout will deliver an ERR we must not leave in the
		// reply stream.
		c.readReply()
		return nil, err
	}
	for i := range conns {
		err := join(i)
		if err != nil && parked[i] {
			err = redial(i)
		}
		if err != nil {
			return fail(err)
		}
	}
	for i := range conns {
		_, err := readReply(conns[i])
		if err != nil && parked[i] {
			if err = redial(i); err == nil {
				_, err = readReply(conns[i])
			}
		}
		if err != nil {
			return fail(err)
		}
	}
	return conns, nil
}
