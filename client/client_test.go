package client_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gomdb"
	"gomdb/client"
	"gomdb/internal/wire"
)

// answer maps one request frame (its id and decoded request) to the id and
// response the scripted peer writes back.
type answer func(id uint64, req *wire.Request) (uint64, *wire.Response)

// script answers the handshake, then every other request with resp(req).
func script(resp func(*wire.Request) *wire.Response) answer {
	return func(id uint64, req *wire.Request) (uint64, *wire.Response) {
		if req.Op == wire.OpHello {
			return id, &wire.Response{Op: wire.RespHello, WireVersion: wire.Version, Shards: 1}
		}
		return id, resp(req)
	}
}

// peer serves the other end of a net.Pipe with ans and counts the request
// frames it reads. It stops when the client end closes.
func peer(t *testing.T, ans answer) (net.Conn, *atomic.Int64) {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	var frames atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srvEnd.Close()
		for {
			f, err := wire.ReadFrame(srvEnd)
			if err != nil {
				return
			}
			frames.Add(1)
			req, err := wire.DecodeRequest(f.Op, f.Payload)
			if err != nil {
				t.Errorf("peer: %v", err)
				return
			}
			id, resp := ans(f.ReqID, req)
			payload, err := wire.EncodeResponse(resp)
			if err != nil {
				t.Errorf("peer: %v", err)
				return
			}
			if wire.WriteFrame(srvEnd, &wire.Frame{Op: resp.Op, ReqID: id, Payload: payload}) != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { cliEnd.Close(); <-done })
	return cliEnd, &frames
}

// dial connects a client to a scripted peer.
func dial(t *testing.T, ans answer) (*client.Client, *atomic.Int64) {
	t.Helper()
	conn, frames := peer(t, ans)
	c, err := client.New(conn, client.Options{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return c, frames
}

// batchable is what Client and Batch share: the batchable operations.
type batchable interface {
	New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
	NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error)
	Delete(oid gomdb.OID) error
	Set(oid gomdb.OID, attr string, v gomdb.Value) error
	GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error)
	Insert(set gomdb.OID, elem gomdb.Value) error
	Remove(set gomdb.OID, elem gomdb.Value) error
	Call(fn string, args ...gomdb.Value) (gomdb.Value, error)
}

// sharedOps runs each batchable operation once against either surface.
var sharedOps = []struct {
	name string
	run  func(batchable) error
}{
	{"new", func(s batchable) error { _, err := s.New("Vertex", gomdb.Float(1)); return err }},
	{"newset", func(s batchable) error { _, err := s.NewSet("Workpieces", gomdb.Ref(1)); return err }},
	{"delete", func(s batchable) error { return s.Delete(1) }},
	{"set", func(s batchable) error { return s.Set(1, "X", gomdb.Float(2)) }},
	{"getattr", func(s batchable) error { _, err := s.GetAttr(1, "X"); return err }},
	{"insert", func(s batchable) error { return s.Insert(1, gomdb.Ref(2)) }},
	{"remove", func(s batchable) error { return s.Remove(1, gomdb.Ref(2)) }},
	{"call", func(s batchable) error { _, err := s.Call("Cuboid.volume", gomdb.Ref(1)); return err }},
}

func expectCode(t *testing.T, name string, err error, code wire.Code) {
	t.Helper()
	if wire.CodeOf(err) != code {
		t.Errorf("%s: error %v carries code %s, want %s", name, err, wire.CodeOf(err), code)
	}
}

// TestWrongResponseKind: a peer that answers every request with a response
// of a kind no operation expects (RespDone) fails every operation with
// CodeMalformed, at the top level and inside a batch.
func TestWrongResponseKind(t *testing.T) {
	c, _ := dial(t, script(func(req *wire.Request) *wire.Response {
		if req.Op == wire.OpBatchBegin {
			return &wire.Response{Op: wire.RespAck}
		}
		return &wire.Response{Op: wire.RespDone}
	}))
	for _, op := range sharedOps {
		expectCode(t, op.name, op.run(c), wire.CodeMalformed)
	}
	others := []struct {
		name string
		run  func() error
	}{
		{"ping", c.Ping},
		{"query", func() error { _, err := c.Query("range c: Cuboid retrieve c", nil); return err }},
		{"retrieve", func() error { _, err := c.Retrieve("VW", nil); return err }},
		{"backward", func() error { _, err := c.Backward("Cuboid.volume", 0, 1); return err }},
		{"extension", func() error { _, err := c.Extension("Cuboid"); return err }},
		{"sum", func() error { _, err := c.Sum("Cuboid.volume", nil); return err }},
		{"materialize", func() error { return c.Materialize(gomdb.MaterializeOptions{Funcs: []string{"Cuboid.volume"}}) }},
		{"dematerialize", func() error { return c.Dematerialize("VW") }},
		{"flush", c.Flush},
		{"simseconds", func() error { _, err := c.SimSeconds(); return err }},
	}
	for _, op := range others {
		expectCode(t, op.name, op.run(), wire.CodeMalformed)
	}
	b, err := c.BeginBatch()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range sharedOps {
		expectCode(t, "batch/"+op.name, op.run(b), wire.CodeMalformed)
	}
	expectCode(t, "batch/commit", b.Commit(), wire.CodeMalformed)
}

// TestClosedBatchStaysLocal: every operation on a committed or aborted
// batch fails with CodeBatch and sends nothing.
func TestClosedBatchStaysLocal(t *testing.T) {
	c, frames := dial(t, script(func(*wire.Request) *wire.Response { return &wire.Response{Op: wire.RespAck} }))
	for _, end := range []string{"commit", "abort"} {
		b, err := c.BeginBatch()
		if err != nil {
			t.Fatal(err)
		}
		finish := b.Commit
		if end == "abort" {
			finish = b.Abort
		}
		if err := finish(); err != nil {
			t.Fatalf("%s: %v", end, err)
		}
		sent := frames.Load()
		for _, op := range sharedOps {
			expectCode(t, end+"/"+op.name, op.run(b), wire.CodeBatch)
		}
		expectCode(t, end+"/commit", b.Commit(), wire.CodeBatch)
		expectCode(t, end+"/abort", b.Abort(), wire.CodeBatch)
		if got := frames.Load(); got != sent {
			t.Errorf("%s: closed batch sent %d frames", end, got-sent)
		}
	}
}

// TestRefusalSurfacesCode: a connection-level refusal (RespError under
// request id 0) surfaces its own code, in the handshake and after it.
func TestRefusalSurfacesCode(t *testing.T) {
	refuse := func(code wire.Code) *wire.Response {
		return &wire.Response{Op: wire.RespError, ErrCode: code, ErrMsg: "refused"}
	}
	conn, _ := peer(t, func(uint64, *wire.Request) (uint64, *wire.Response) { return 0, refuse(wire.CodeBusy) })
	if _, err := client.New(conn, client.Options{CallTimeout: 5 * time.Second}); wire.CodeOf(err) != wire.CodeBusy {
		t.Fatalf("refused handshake: %v, want busy", err)
	}

	c, _ := dial(t, func(id uint64, req *wire.Request) (uint64, *wire.Response) {
		if req.Op == wire.OpHello {
			return id, &wire.Response{Op: wire.RespHello, WireVersion: wire.Version, Shards: 1}
		}
		return 0, refuse(wire.CodeShutdown)
	})
	expectCode(t, "ping", c.Ping(), wire.CodeShutdown)
}
