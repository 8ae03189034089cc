package gridftp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"repro/internal/gridcert"
	"repro/internal/gsitransport"
	"repro/internal/gss"
	"repro/internal/proxy"
	"repro/internal/record"
)

// Server is a GridFTP endpoint: a secured listener in front of a Store.
type Server struct {
	store    *Store
	cred     *gridcert.Credential
	trust    *gridcert.TrustStore
	listener *gsitransport.Listener

	// stripes collects the data connections of striped transfers as
	// their JOINs arrive.
	stripes *gsitransport.Rendezvous
}

// NewServer starts a GridFTP server on addr ("127.0.0.1:0" for tests).
func NewServer(addr string, store *Store, cred *gridcert.Credential, trust *gridcert.TrustStore) (*Server, error) {
	inner, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		store:   store,
		cred:    cred,
		trust:   trust,
		stripes: gsitransport.NewRendezvous(gsitransport.StripeJoinTimeout),
		listener: gsitransport.NewListener(inner, gss.Config{
			Credential: cred,
			TrustStore: trust,
		}),
	}
	go s.listener.Serve(context.Background(), s.serve)
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Identity returns the server's host identity.
func (s *Server) Identity() gridcert.Name { return s.cred.Leaf().Subject }

// Close stops the server.
func (s *Server) Close() error { return s.listener.Close() }

func (s *Server) serve(conn *gsitransport.Conn) {
	defer conn.Close()
	ctx := context.Background()
	identity := conn.Peer().Identity
	for {
		msg, err := conn.Receive()
		if err != nil {
			return
		}
		verb, path, payload, err := decodeCmd(msg)
		if err != nil {
			conn.Send(encodeReply(opErr, "", []byte(err.Error())))
			return
		}
		switch verb {
		case opGetS:
			if !s.serveGet(ctx, conn, identity, path, payload) {
				return
			}
		case opPutS:
			if !s.servePut(ctx, conn, identity, path, payload) {
				return
			}
		case opJoin:
			if !s.serveJoin(conn, identity, payload) {
				return
			}
		default:
			if err := conn.Send(s.execute(identity, verb, path, payload)); err != nil {
				return
			}
		}
	}
}

// serveGet answers a GET: acknowledge (granting stripes when the payload
// asks for them), then send the file as chunk records straight out of
// the store — the seal is the only pass over the data — over the control
// connection or the K data connections. A striped GET carries no
// further control reply: the data plane's FIN trailers are the
// completion signal. Returns false when the control connection is
// unusable.
func (s *Server) serveGet(ctx context.Context, conn *gsitransport.Conn, identity gridcert.Name, path string, payload []byte) bool {
	data, err := s.store.Open(identity, path)
	if err != nil {
		return s.refuse(conn, path, err)
	}
	k, striped := decodeStripeGetReq(payload)
	var size [8]byte
	binary.BigEndian.PutUint64(size[:], uint64(len(data)))
	conns, grp, err := s.invite(conn, identity, path, k, striped, size[:])
	if err != nil {
		return s.refuse(conn, path, err)
	}
	pipe := gsitransport.NewTransfer(ctx, conns, gsitransport.Send)
	_, err = pipe.Write(data)
	// A write failure travels to the client as the ERROR record (when the
	// connections can still carry one).
	if ferr := pipe.Finish(err); err == nil {
		err = ferr
	}
	if grp != nil {
		grp.Close()
		return true
	}
	return err == nil
}

// servePut answers a PUT: authorize before inviting any data,
// acknowledge (granting stripes when asked), assemble the inbound
// chunks, and send the verdict on the control connection. The command
// payload may carry a size hint used to pre-size the assembly (bounded —
// a lying hint degrades to incremental growth, never to an oversized
// trust-the-peer allocation). Returns false when the control connection
// is unusable.
func (s *Server) servePut(ctx context.Context, conn *gsitransport.Conn, identity gridcert.Name, path string, payload []byte) bool {
	// Fail-closed before the client ships a byte.
	if err := s.store.authorize(identity, path, "write"); err != nil {
		return s.refuse(conn, path, err)
	}
	k, hint, striped := decodeStripePutReq(payload)
	if !striped && len(payload) == 8 {
		hint = binary.BigEndian.Uint64(payload)
	}
	conns, grp, err := s.invite(conn, identity, path, k, striped, nil)
	if err != nil {
		return s.refuse(conn, path, err)
	}
	pipe := gsitransport.NewTransfer(ctx, conns, gsitransport.Recv)
	prealloc := uint64(1 << 20)
	if hint > prealloc {
		prealloc = min(hint, maxPutPrealloc)
	}
	assembled, err := pipe.ReadAll(int(prealloc))
	pipe.Finish(nil) // nothing to add: a failed ReadAll is Finish's verdict too
	if grp != nil {
		grp.Close()
	}
	if err == nil {
		err = s.store.PutOwned(identity, path, assembled)
	}
	if err == nil {
		return conn.Send(encodeReply(opOK, path, nil)) == nil
	}
	// A clean client abort resynchronized the stream: report its reason
	// and keep serving. After a transport failure on the control
	// connection the reply fails too, and the session ends.
	msg := err.Error()
	var peerErr *record.PeerError
	if errors.As(err, &peerErr) {
		msg = peerErr.Msg
	}
	return conn.Send(encodeReply(opErr, path, []byte(msg))) == nil
}

// refuse reports err to the client in place of a grant.
func (s *Server) refuse(conn *gsitransport.Conn, path string, err error) bool {
	return conn.Send(encodeReply(opErr, path, []byte(err.Error()))) == nil
}

// maxPutPrealloc caps how much memory a declared size hint may reserve
// up front; larger (or lying) hints grow incrementally past it.
const maxPutPrealloc = 256 << 20

// transferCopyBuffer sizes the relay buffer for streamed copies. It
// matches the stream layer's bulk-write threshold so each relay write
// takes the pipelined seal path instead of sealing chunk by chunk.
const transferCopyBuffer = 4 * record.DefaultChunkSize

func (s *Server) execute(identity gridcert.Name, verb, path string, payload []byte) []byte {
	switch verb {
	case opDel:
		if err := s.store.Delete(identity, path); err != nil {
			return encodeReply(opErr, path, []byte(err.Error()))
		}
		return encodeReply(opOK, path, nil)
	case opList:
		names, err := s.store.List(identity, path)
		if err != nil {
			return encodeReply(opErr, path, []byte(err.Error()))
		}
		return encodeReply(opOK, path, []byte(strings.Join(names, "\n")))
	default:
		return encodeReply(opErr, path, []byte("unknown verb "+verb))
	}
}

// Client is a GridFTP client session. The dial parameters are retained
// so striped transfers can open matching data connections.
type Client struct {
	conn       *gsitransport.Conn
	cred       *gridcert.Credential
	trust      *gridcert.TrustStore
	addr       string
	expectHost gridcert.Name

	// parked holds the data connections of striped transfers that ended
	// cleanly, authenticated once and joined to the session's next striped
	// transfer in place of a dial (stripe.go). The lock is for Close,
	// which may come from another goroutine than the one transferring.
	mu     sync.Mutex
	parked []*gsitransport.Conn
	closed bool
}

// Dial connects and authenticates to a GridFTP server.
func Dial(addr string, cred *gridcert.Credential, trust *gridcert.TrustStore, expectHost gridcert.Name) (*Client, error) {
	conn, err := gsitransport.Dial(addr, gss.Config{
		Credential:   cred,
		TrustStore:   trust,
		ExpectedPeer: expectHost,
	})
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, cred: cred, trust: trust, addr: addr, expectHost: expectHost}, nil
}

// Close ends the session and closes its parked data connections.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	parked := c.parked
	c.parked = nil
	c.mu.Unlock()
	for _, dc := range parked {
		dc.Close()
	}
	return c.conn.Close()
}

func (c *Client) roundTrip(verb, path string, payload []byte) ([]byte, error) {
	msg, err := encodeCmd(verb, path, payload)
	if err != nil {
		return nil, err
	}
	if err := c.conn.Send(msg); err != nil {
		return nil, err
	}
	return c.readReply()
}

// GetReader is an in-flight GET: an io.ReadCloser delivering the file in
// order as its chunks arrive, over the control connection or over the
// striped data connections. Close before issuing further commands on the
// same client.
type GetReader struct {
	c    *Client
	pipe *gsitransport.Stream
	data []*gsitransport.Conn // data connections of a striped GET
	size int64
	err  error
}

// Size is the transfer size a striped grant announced (0 when the GET
// streams on the control connection, which announces none).
func (g *GetReader) Size() int64 { return g.size }

// serverErr renders a peer abort as the server's reason.
func serverErr(err error) error {
	var peerErr *record.PeerError
	if errors.As(err, &peerErr) {
		return fmt.Errorf("gridftp: server: %s", peerErr.Msg)
	}
	return err
}

// failed records a mid-stream failure — the server's abort reason, when
// that is what it was — so Close does not report it again.
func (g *GetReader) failed(err error) error {
	if err != nil && err != io.EOF {
		err = serverErr(err)
		g.err = err
	}
	return err
}

// Read returns file bytes, io.EOF at the end of a complete transfer,
// and the server's abort reason if it failed mid-stream.
func (g *GetReader) Read(p []byte) (int, error) {
	n, err := g.pipe.Read(p)
	return n, g.failed(err)
}

// WriteTo hands the rest of the file to w chunk by chunk, uncopied:
// what io.Copy uses in place of a Read loop through its own buffer.
func (g *GetReader) WriteTo(w io.Writer) (int64, error) {
	n, err := g.pipe.WriteTo(w)
	return n, g.failed(err)
}

// Close consumes any unread remainder so the session is reusable, and
// settles the data connections of a striped GET: parked on the session
// when the whole transfer ended cleanly, closed otherwise. A failure the
// reader already reported is not reported again.
func (g *GetReader) Close() error {
	err := g.pipe.Finish(nil)
	// (A reader put together without a session has nowhere to park.)
	g.c.release(g.data, g.c != nil && err == nil && g.err == nil)
	g.data = nil
	if g.err != nil {
		err = nil
	} else {
		g.err = err
	}
	return err
}

// readAll consumes the whole file into memory and closes the transfer.
func (g *GetReader) readAll() ([]byte, error) {
	hint := 0
	if g.size > 0 && g.size <= maxPutPrealloc {
		hint = int(g.size)
	}
	data, err := g.pipe.ReadAll(hint)
	if err = g.failed(err); err != nil {
		g.Close()
		return nil, err
	}
	return data, g.Close()
}

// openGet starts a GET of path: on the control connection when stripes
// is 0, else over up to stripes data connections (the server may grant
// fewer).
func (c *Client) openGet(path string, stripes int) (*GetReader, error) {
	var req []byte
	if stripes > 0 {
		req = encodeStripeGetReq(stripes)
	}
	g := &GetReader{c: c}
	grant, err := c.roundTrip(opGetS, path, req)
	conns := []*gsitransport.Conn{c.conn}
	if err == nil && stripes > 0 {
		if len(grant) != 4+8+stripeTokenLen {
			err = errMalformedGrant
		} else {
			g.size = int64(binary.BigEndian.Uint64(grant[4:12]))
			conns, err = c.dialStripes(int(binary.BigEndian.Uint32(grant)), grant[12:])
			g.data = conns
		}
	}
	if err != nil {
		return nil, err
	}
	g.pipe = gsitransport.NewTransfer(context.Background(), conns, gsitransport.Recv)
	return g, nil
}

// GetStream starts a streamed GET of path on the control connection.
func (c *Client) GetStream(path string) (*GetReader, error) { return c.openGet(path, 0) }

// GetStripedReader starts a striped GET of path over up to stripes
// data connections (the server may grant fewer).
func (c *Client) GetStripedReader(path string, stripes int) (*GetReader, error) {
	return c.openGet(path, max(stripes, 1))
}

// GetTo fetches path, writing the content to w as it arrives, and
// returns the byte count.
func (c *Client) GetTo(path string, w io.Writer) (int64, error) {
	g, err := c.GetStream(path)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(w, g)
	if cerr := g.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return n, err
}

// Get fetches a file into memory.
func (c *Client) Get(path string) ([]byte, error) {
	g, err := c.GetStream(path)
	if err != nil {
		return nil, err
	}
	return g.readAll()
}

// PutWriter is an in-flight PUT: an io.WriteCloser whose Close completes
// the transfer and returns the server's verdict from the control
// connection. Abort cancels mid-stream. Finish (Close or Abort) before
// issuing further commands on the same client.
type PutWriter struct {
	c    *Client
	pipe *gsitransport.Stream
	data []*gsitransport.Conn // data connections of a striped PUT
	done bool
}

// Write ships file bytes as chunk records.
func (w *PutWriter) Write(p []byte) (int, error) {
	return w.pipe.Write(p)
}

// finish terminates the data plane (FIN, or the ERROR record carrying
// cause) and consumes the server's verdict, which arrives on the
// control connection either way and must not be left in its reply
// stream. The data connections of a striped PUT the server confirmed
// are parked on the session; after anything else they are closed.
func (w *PutWriter) finish(cause error) (sendErr, verdict error) {
	w.done = true
	sendErr = w.pipe.Finish(cause)
	_, verdict = w.c.readReply()
	w.c.release(w.data, cause == nil && sendErr == nil && verdict == nil)
	return sendErr, verdict
}

// Close sends FIN (the FIN trailer on every stripe) and waits for the
// server's confirmation.
func (w *PutWriter) Close() error {
	if w.done {
		return nil
	}
	err, verdict := w.finish(nil)
	if err == nil {
		err = verdict
	}
	return err
}

// Abort cancels the transfer mid-stream: the server discards the
// partial file and the session stays usable.
func (w *PutWriter) Abort(reason string) error {
	if w.done {
		return nil
	}
	err, verdict := w.finish(errors.New(reason))
	if err == nil && verdict == nil {
		// The server acknowledges an abort with its ERR reply.
		err = errors.New("gridftp: server confirmed an aborted transfer")
	}
	return err
}

// readReply consumes one OK/ERR control message.
func (c *Client) readReply() ([]byte, error) { return readReply(c.conn) }

func readReply(conn *gsitransport.Conn) ([]byte, error) {
	msg, err := conn.Receive()
	if err != nil {
		return nil, err
	}
	rverb, _, rpayload, err := decodeCmd(msg)
	if err != nil {
		return nil, err
	}
	if rverb == opErr {
		return nil, fmt.Errorf("gridftp: server: %s", rpayload)
	}
	return rpayload, nil
}

// openPut starts a PUT to path: on the control connection when stripes
// is 0, else over up to stripes data connections. The server authorizes
// the write before any data flows. sizeHint, when positive, lets the
// server pre-size its assembly; 0 means unknown.
func (c *Client) openPut(path string, stripes int, sizeHint int64) (*PutWriter, error) {
	hint := uint64(max(sizeHint, 0))
	var req []byte
	switch {
	case stripes > 0:
		req = encodeStripePutReq(stripes, hint)
	case hint > 0:
		req = binary.BigEndian.AppendUint64(nil, hint)
	}
	w := &PutWriter{c: c}
	grant, err := c.roundTrip(opPutS, path, req)
	conns := []*gsitransport.Conn{c.conn}
	if err == nil && stripes > 0 {
		if len(grant) != 4+stripeTokenLen {
			err = errMalformedGrant
		} else {
			conns, err = c.dialStripes(int(binary.BigEndian.Uint32(grant)), grant[4:])
			w.data = conns
		}
	}
	if err != nil {
		return nil, err
	}
	w.pipe = gsitransport.NewTransfer(context.Background(), conns, gsitransport.Send)
	return w, nil
}

// PutStream starts a streamed PUT to path on the control connection.
func (c *Client) PutStream(path string, sizeHint int64) (*PutWriter, error) {
	return c.openPut(path, 0, sizeHint)
}

// PutStripedWriter starts a striped PUT to path over up to stripes
// data connections (the server may grant fewer).
func (c *Client) PutStripedWriter(path string, stripes int, sizeHint int64) (*PutWriter, error) {
	return c.openPut(path, max(stripes, 1), sizeHint)
}

// PutFrom stores r's content at path, streaming as it reads, and
// returns the byte count. Readers that know their length (bytes.Reader,
// strings.Reader, os.File via Seek-implemented Len) declare it so the
// server assembles without growth copies. A read failure aborts the
// transfer so the server discards the partial file.
func (c *Client) PutFrom(path string, r io.Reader) (int64, error) {
	var hint int64
	if l, ok := r.(interface{ Len() int }); ok {
		hint = int64(l.Len())
	}
	w, err := c.PutStream(path, hint)
	if err != nil {
		return 0, err
	}
	return copyTo(w, r)
}

// copyTo relays r into w through one transfer-sized pooled buffer and
// completes the PUT; a failure aborts it. A GET goes in without its
// WriteTo: io.CopyBuffer would take it and hand w the file one chunk at
// a time, each below the bulk-write threshold and sealed alone, where
// the relay's writes take the pipelined path.
func copyTo(w *PutWriter, r io.Reader) (int64, error) {
	if g, ok := r.(*GetReader); ok {
		r = struct{ io.Reader }{g}
	}
	buf := record.Get(transferCopyBuffer)
	n, err := io.CopyBuffer(w, r, buf.B[:transferCopyBuffer])
	buf.Free()
	if err != nil {
		w.Abort(err.Error())
		return n, err
	}
	return n, w.Close()
}

// PutStriped stores a file from memory over parallel stripes.
func (c *Client) PutStriped(path string, stripes int, data []byte) error {
	w, err := c.PutStripedWriter(path, stripes, int64(len(data)))
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort(err.Error())
		return err
	}
	return w.Close()
}

// List enumerates a prefix.
func (c *Client) List(prefix string) ([]string, error) {
	out, err := c.roundTrip(opList, prefix, nil)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, nil
	}
	return strings.Split(string(out), "\n"), nil
}

// ThirdPartyTransfer orchestrates src→dst copy of path on the client's
// authority: the client delegates a proxy to the source server, which
// then authenticates to the destination *as the client* and pushes the
// file. This is GSI delegation doing its canonical job.
//
// The copy is streamed end to end — source chunks flow into destination
// chunks through one transfer-sized buffer, never materializing the
// file — so third-party moves are unbounded too.
//
// In this in-process reproduction the "source server side" runs in this
// function with the delegated credential, exactly as the source host
// would.
func ThirdPartyTransfer(client *gridcert.Credential, trust *gridcert.TrustStore,
	srcAddr string, srcHost gridcert.Name,
	dstAddr string, dstHost gridcert.Name,
	srcPath, dstPath string) error {

	// 1. The client connects to the source and fetches nothing itself —
	// it delegates. (Delegation rides the established secure channel in
	// real GridFTP; here we run the exchange directly.)
	delegatee, req, err := proxy.NewDelegatee(0, false)
	if err != nil {
		return err
	}
	reply, err := proxy.HandleDelegation(client, req, proxy.Options{})
	if err != nil {
		return err
	}
	delegated, err := delegatee.Accept(reply)
	if err != nil {
		return err
	}

	// 2. The source (acting with the delegated credential) streams the
	// file from itself into the destination as the client.
	srcConn, err := Dial(srcAddr, delegated, trust, srcHost)
	if err != nil {
		return fmt.Errorf("gridftp: third-party: source: %w", err)
	}
	defer srcConn.Close()
	dstConn, err := Dial(dstAddr, delegated, trust, dstHost)
	if err != nil {
		return fmt.Errorf("gridftp: third-party: destination: %w", err)
	}
	defer dstConn.Close()

	get, err := srcConn.GetStream(srcPath)
	if err != nil {
		return err
	}
	put, err := dstConn.PutStream(dstPath, get.Size())
	if err != nil {
		get.Close()
		return err
	}
	if _, err := copyTo(put, get); err != nil {
		get.Close()
		return err
	}
	return get.Close()
}
