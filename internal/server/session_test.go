package server_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"gomdb"
	"gomdb/client"
	"gomdb/internal/server"
	"gomdb/internal/wire"
)

// Protocol-level session behaviour: handshake ordering, auth, version skew,
// connection limits, malformed traffic, batch lifecycle guards, and drain.

// rawConn speaks raw frames against a server end of a pipe, for tests that
// need traffic the client refuses to produce.
type rawConn struct {
	t    *testing.T
	conn net.Conn
}

func rawSession(t *testing.T, srv *server.Server) *rawConn {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	t.Cleanup(func() { cliEnd.Close() })
	return &rawConn{t: t, conn: cliEnd}
}

func (r *rawConn) send(op wire.Opcode, reqID uint64, payload []byte) {
	r.t.Helper()
	r.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(r.conn, &wire.Frame{Op: op, ReqID: reqID, Payload: payload}); err != nil {
		r.t.Fatalf("send %s: %v", op, err)
	}
}

func (r *rawConn) sendReq(req *wire.Request, reqID uint64) {
	r.t.Helper()
	payload, err := wire.EncodeRequest(req)
	if err != nil {
		r.t.Fatalf("encode %s: %v", req.Op, err)
	}
	r.send(req.Op, reqID, payload)
}

func (r *rawConn) recv() *wire.Response {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := wire.ReadFrame(r.conn)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	resp, err := wire.DecodeResponse(frame.Op, frame.Payload)
	if err != nil {
		r.t.Fatalf("decode response: %v", err)
	}
	return resp
}

func (r *rawConn) hello(token string) {
	r.t.Helper()
	r.sendReq(&wire.Request{Op: wire.OpHello, WireVersion: wire.Version, Token: token}, 1)
	if resp := r.recv(); resp.Op != wire.RespHello {
		r.t.Fatalf("handshake answered with %s", resp.Op)
	}
}

// expectClosed asserts the server closed the connection (EOF or reset).
func (r *rawConn) expectClosed() {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if frame, err := wire.ReadFrame(r.conn); err == nil {
		r.t.Fatalf("connection still open, got %s frame", frame.Op)
	}
}

func expectCode(t *testing.T, err error, code wire.Code) {
	t.Helper()
	if wire.CodeOf(err) != code {
		t.Fatalf("error %v carries code %s, want %s", err, wire.CodeOf(err), code)
	}
}

func TestHandshakeHelloFirst(t *testing.T) {
	be, _ := plainBackend(t)
	srv := newServer(t, be, nil)
	r := rawSession(t, srv)
	r.sendReq(&wire.Request{Op: wire.OpPing}, 1)
	resp := r.recv()
	if resp.Op != wire.RespError || resp.ErrCode != wire.CodeBadRequest {
		t.Fatalf("ping before hello answered with %s/%s", resp.Op, resp.ErrCode)
	}
	r.expectClosed()
	drainServer(t, srv)
}

func TestHandshakeVersionSkew(t *testing.T) {
	be, _ := plainBackend(t)
	srv := newServer(t, be, nil)
	r := rawSession(t, srv)
	// A future client version inside a well-formed v1 frame: the payload
	// carries version 2, the frame itself is current.
	r.sendReq(&wire.Request{Op: wire.OpHello, WireVersion: wire.Version + 1}, 1)
	resp := r.recv()
	if resp.Op != wire.RespError || resp.ErrCode != wire.CodeVersion {
		t.Fatalf("version skew answered with %s/%s", resp.Op, resp.ErrCode)
	}
	r.expectClosed()
	drainServer(t, srv)
}

func TestAuthToken(t *testing.T) {
	be, _ := plainBackend(t)
	srv := newServer(t, be, func(c *server.Config) { c.AuthToken = "sesame" })

	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	if _, err := client.New(cliEnd, client.Options{Token: "wrong"}); wire.CodeOf(err) != wire.CodeAuth {
		t.Fatalf("wrong token: %v", err)
	}
	cliEnd.Close()

	c := pipeClient(t, srv, client.Options{Token: "sesame"})
	if err := c.Ping(); err != nil {
		t.Fatalf("authed ping: %v", err)
	}
	if srv.Stats().AuthFailures != 1 {
		t.Fatalf("auth failures = %d, want 1", srv.Stats().AuthFailures)
	}
	c.Close()
	drainServer(t, srv)
}

func TestMalformedTrafficAnswered(t *testing.T) {
	be, _ := plainBackend(t)
	srv := newServer(t, be, nil)
	r := rawSession(t, srv)
	r.hello("")
	// Garbage that is not even a frame: the server answers with a bad-magic
	// error frame, then closes (framing is unrecoverable).
	r.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.conn.Write([]byte("this is not a frame, not even close......")); err != nil {
		t.Fatal(err)
	}
	resp := r.recv()
	if resp.Op != wire.RespError || resp.ErrCode != wire.CodeBadMagic {
		t.Fatalf("garbage answered with %s/%s", resp.Op, resp.ErrCode)
	}
	r.expectClosed()
	drainServer(t, srv)
}

func TestGarbagePayloadKeepsSession(t *testing.T) {
	be, _ := plainBackend(t)
	srv := newServer(t, be, nil)
	r := rawSession(t, srv)
	r.hello("")
	// A well-framed request whose payload is garbage: answered with an
	// error, session continues.
	r.send(wire.OpQuery, 2, []byte{0xFF, 0xFF, 0xFF})
	resp := r.recv()
	if resp.Op != wire.RespError || resp.ErrCode != wire.CodeMalformed {
		t.Fatalf("garbage payload answered with %s/%s", resp.Op, resp.ErrCode)
	}
	r.sendReq(&wire.Request{Op: wire.OpPing}, 3)
	if resp := r.recv(); resp.Op != wire.RespAck {
		t.Fatalf("session did not survive garbage payload: %s", resp.Op)
	}
	r.conn.Close()
	drainServer(t, srv)
}

func TestMaxConns(t *testing.T) {
	be, _ := plainBackend(t)
	srv := newServer(t, be, func(c *server.Config) { c.MaxConns = 1 })
	addr := tcpServer(t, srv)
	c1 := tcpClient(t, addr, client.Options{})
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second}); wire.CodeOf(err) != wire.CodeBusy {
		t.Fatalf("second connection: %v, want busy", err)
	}
	if srv.Stats().Refused != 1 {
		t.Fatalf("refused = %d, want 1", srv.Stats().Refused)
	}
	c1.Close()
	// The slot frees up once the first session is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := client.Dial(addr, client.Options{DialTimeout: time.Second})
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBatchLifecycleGuards(t *testing.T) {
	be, _ := plainBackend(t)
	srv := newServer(t, be, nil)
	c := pipeClient(t, srv, client.Options{})
	ext, err := c.Extension("Cuboid")
	if err != nil {
		t.Fatal(err)
	}
	c0 := ext[0]

	b, err := c.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	// Double begin is refused.
	if _, err := c.BeginBatch(); !errors.Is(err, &wire.Error{Code: wire.CodeBatch}) {
		t.Fatalf("double begin: %v", err)
	}
	// Non-batch updates while a batch is open would self-deadlock on the
	// engine lock this session already holds; the server refuses them.
	expectCode(t, c.Set(c0, "Value", gomdb.Float(1)), wire.CodeBatch)
	// Liveness stays available.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping during batch: %v", err)
	}
	if err := b.Set(c0, "Value", gomdb.Float(5)); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// Commit or op on a closed batch is refused — locally and server-side.
	expectCode(t, b.Commit(), wire.CodeBatch)
	if _, err := b.New("Vertex", gomdb.Float(0), gomdb.Float(0), gomdb.Float(0)); wire.CodeOf(err) != wire.CodeBatch {
		t.Fatalf("op on closed batch: %v", err)
	}
	v, err := c.GetAttr(c0, "Value")
	if err != nil || v.F != 5 {
		t.Fatalf("batched set lost: %v %v", v, err)
	}
	c.Close()
	drainServer(t, srv)
}

func TestBatchOpOutsideBatch(t *testing.T) {
	be, _ := plainBackend(t)
	srv := newServer(t, be, nil)
	r := rawSession(t, srv)
	r.hello("")
	r.sendReq(&wire.Request{Op: wire.OpBatchOp, Sub: &wire.Request{Op: wire.OpDelete, OID: 1}}, 2)
	resp := r.recv()
	if resp.Op != wire.RespError || resp.ErrCode != wire.CodeBatch {
		t.Fatalf("stray batch op answered with %s/%s", resp.Op, resp.ErrCode)
	}
	r.sendReq(&wire.Request{Op: wire.OpBatchCommit}, 3)
	resp = r.recv()
	if resp.Op != wire.RespError || resp.ErrCode != wire.CodeBatch {
		t.Fatalf("stray commit answered with %s/%s", resp.Op, resp.ErrCode)
	}
	r.conn.Close()
	drainServer(t, srv)
}

// TestProtocolErrorText: a protocol error the server raises reads the same
// on the client as on the server, with its code prefix printed once.
func TestProtocolErrorText(t *testing.T) {
	be, _ := plainBackend(t)
	srv := newServer(t, be, nil)
	c := pipeClient(t, srv, client.Options{})
	bad := wire.MatOptions{Name: "bad", Funcs: []string{"Cuboid.volume"}, Strategy: 9}
	_, want := bad.Options()
	if want == nil {
		t.Fatal("strategy 9 accepted")
	}
	err := c.Materialize(gomdb.MaterializeOptions{Name: "bad", Funcs: []string{"Cuboid.volume"}, Strategy: 9})
	expectCode(t, err, wire.CodeBadRequest)
	if err.Error() != want.Error() {
		t.Fatalf("served error reads %q, server-side %q", err.Error(), want.Error())
	}
	c.Close()
	drainServer(t, srv)
}

func TestShutdownDrains(t *testing.T) {
	be, db := plainBackend(t)
	srv := newServer(t, be, nil)
	addr := tcpServer(t, srv)
	clients := make([]*client.Client, 3)
	for i := range clients {
		clients[i] = tcpClient(t, addr, client.Options{})
		if err := clients[i].Ping(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if v := srv.AuditQuiescent(); len(v) != 0 {
		t.Fatalf("post-drain audit: %v", v)
	}
	// Drained sessions answer nothing further.
	for _, c := range clients {
		if err := c.Ping(); err == nil {
			t.Fatal("ping succeeded after drain")
		}
	}
	// New connections are refused outright.
	if _, err := client.Dial(addr, client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after drain")
	}
	// The engine itself is unharmed.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}
