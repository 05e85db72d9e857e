// Package client is the gomdb network SDK: it dials a gomserve instance
// (or wraps any net.Conn, e.g. one half of a net.Pipe in tests), performs
// the versioned handshake, and exposes the embedded API's surface over the
// internal/wire protocol — queries, function calls, elementary updates,
// GMR materialization and retrieval, and interactive update batches.
//
// A Client multiplexes nothing: calls are serialized on the connection
// (guarded by a mutex), one request in flight at a time, responses matched
// to requests by id. Open one Client per concurrent actor.
package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"gomdb"
	"gomdb/internal/wire"
)

// Options configures Dial and New.
type Options struct {
	// Token is the authentication token presented in the handshake.
	Token string
	// DialTimeout bounds Dial's connection attempt; 0 means no limit.
	DialTimeout time.Duration
	// CallTimeout bounds each request/response round trip (deadline armed
	// per frame, so long streams are not starved); 0 means no limit.
	CallTimeout time.Duration
}

// Client is one protocol session. The batchable operations (New, NewSet,
// Delete, Set, GetAttr, Insert, Remove, Call) come from the op set it
// shares with Batch.
type Client struct {
	ops
	opts Options

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	reqID  uint64
	shards uint32
	closed bool
}

// Dial connects to a gomserve at addr and performs the handshake.
func Dial(addr string, opts Options) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c, err := New(conn, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// New wraps an established connection (any net.Conn) and performs the
// handshake. On error the connection is left to the caller to close.
func New(conn net.Conn, opts Options) (*Client, error) {
	c := &Client{opts: opts, conn: conn, br: bufio.NewReader(conn)}
	c.ops = ops{c: c}
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpHello, WireVersion: wire.Version, Token: opts.Token})
	if err != nil {
		return nil, err
	}
	if resp.Op != wire.RespHello {
		return nil, wire.Errf(wire.CodeBadRequest, "handshake answered with %s", resp.Op)
	}
	if resp.WireVersion != wire.Version {
		return nil, wire.Errf(wire.CodeVersion, "server speaks protocol %d, client speaks %d", resp.WireVersion, wire.Version)
	}
	c.shards = resp.Shards
	return c, nil
}

// Shards reports the server backend's partition count (1 for a plain
// engine), as announced in the handshake.
func (c *Client) Shards() int { return int(c.shards) }

// Close announces an orderly goodbye and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// Best-effort goodbye; the close matters more than the ack.
	c.exchange(&wire.Request{Op: wire.OpGoodbye}, wire.RespAck)
	return c.conn.Close()
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	_, err := c.exchange(&wire.Request{Op: wire.OpPing}, wire.RespAck)
	return err
}

// --- wire plumbing ---------------------------------------------------------

var (
	errClosed      = wire.Errf(wire.CodeShutdown, "client is closed")
	errBatchClosed = wire.Errf(wire.CodeBatch, "batch already closed")
)

// exchange performs one serialized request/response round trip and insists
// on a response of kind want.
func (c *Client) exchange(req *wire.Request, want wire.Opcode) (*wire.Response, error) {
	c.mu.Lock()
	resp, err := c.roundTrip(req)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if resp.Op != want {
		return nil, wire.Errf(wire.CodeMalformed, "%s answered with %s, expected %s", req.Op, resp.Op, want)
	}
	return resp, nil
}

// roundTrip writes req and reads its (non-stream) response. Callers hold
// c.mu (New calls it before the client escapes its goroutine).
func (c *Client) roundTrip(req *wire.Request) (*wire.Response, error) {
	id, err := c.send(req)
	if err != nil {
		return nil, err
	}
	return c.recv(id)
}

func (c *Client) send(req *wire.Request) (uint64, error) {
	if c.closed && req.Op != wire.OpGoodbye {
		return 0, errClosed
	}
	payload, err := wire.EncodeRequest(req)
	if err != nil {
		return 0, err
	}
	c.reqID++
	id := c.reqID
	if t := c.opts.CallTimeout; t > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(t))
	}
	if err := wire.WriteFrame(c.conn, &wire.Frame{Op: req.Op, ReqID: id, Payload: payload}); err != nil {
		return 0, err
	}
	return id, nil
}

// recv reads one response frame for request id and decodes it. RespError
// becomes a structured *wire.Error.
func (c *Client) recv(id uint64) (*wire.Response, error) {
	if t := c.opts.CallTimeout; t > 0 {
		c.conn.SetReadDeadline(time.Now().Add(t))
	}
	frame, err := wire.ReadFrame(c.br)
	if err != nil {
		return nil, err
	}
	if frame.ReqID != id {
		// A connection-level refusal (the server rejects before reading any
		// request — full, draining) travels as a RespError with id 0.
		if frame.Op == wire.RespError && frame.ReqID == 0 {
			if resp, derr := wire.DecodeResponse(frame.Op, frame.Payload); derr == nil {
				return nil, resp.Err()
			}
		}
		return nil, wire.Errf(wire.CodeMalformed, "response for request %d, expected %d", frame.ReqID, id)
	}
	resp, err := wire.DecodeResponse(frame.Op, frame.Payload)
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

// stream round-trips a streamed request: RespStreamBegin of the expected
// kind, any number of RespChunk frames, RespDone. It returns the begin
// frame's columns and the rows picked out of every chunk; the reported total
// is verified against the delivered row count, so a lost chunk cannot pass
// silently.
func stream[T any](c *Client, req *wire.Request, kind wire.StreamKind, rows func(*wire.Response) []T) ([]string, []T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(req)
	if err != nil {
		return nil, nil, err
	}
	begin, err := c.recv(id)
	if err != nil {
		return nil, nil, err
	}
	if begin.Op != wire.RespStreamBegin || begin.Stream != kind {
		return nil, nil, wire.Errf(wire.CodeMalformed, "expected %d-stream begin, got %s", kind, begin.Op)
	}
	var out []T
	for {
		resp, err := c.recv(id)
		if err != nil {
			return nil, nil, err
		}
		switch resp.Op {
		case wire.RespChunk:
			if resp.Stream != kind {
				return nil, nil, wire.Errf(wire.CodeMalformed, "stream kind changed mid-stream")
			}
			out = append(out, rows(resp)...)
		case wire.RespDone:
			if uint64(len(out)) != resp.Total {
				return nil, nil, wire.Errf(wire.CodeMalformed, "stream delivered %d rows, server sent %d", len(out), resp.Total)
			}
			return begin.Columns, out, nil
		default:
			return nil, nil, wire.Errf(wire.CodeMalformed, "unexpected %s inside stream", resp.Op)
		}
	}
}

// --- the batchable operations ----------------------------------------------

// ops is the op set Client and Batch share, so each batchable operation is
// written once. b is nil on a Client: each op travels as itself. On a Batch
// each op travels as the sub-operation of an OpBatchOp.
type ops struct {
	c *Client
	b *Batch
}

// do round-trips one batchable operation and insists on a response of kind
// want. An op on a closed batch fails without touching the connection.
func (o ops) do(req *wire.Request, want wire.Opcode) (*wire.Response, error) {
	if o.b == nil {
		return o.c.exchange(req, want)
	}
	if o.b.done {
		return nil, errBatchClosed
	}
	return o.c.exchange(&wire.Request{Op: wire.OpBatchOp, Sub: req}, want)
}

// New creates a tuple-structured instance.
func (o ops) New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	resp, err := o.do(&wire.Request{Op: wire.OpNew, Name: typeName, Args: attrs}, wire.RespOID)
	if err != nil {
		return 0, err
	}
	return resp.OID, nil
}

// NewSet creates a set- or list-structured instance.
func (o ops) NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error) {
	resp, err := o.do(&wire.Request{Op: wire.OpNewSet, Name: typeName, Args: elems}, wire.RespOID)
	if err != nil {
		return 0, err
	}
	return resp.OID, nil
}

// Delete removes an object.
func (o ops) Delete(oid gomdb.OID) error {
	_, err := o.do(&wire.Request{Op: wire.OpDelete, OID: oid}, wire.RespAck)
	return err
}

// Set performs the elementary update oid.set_attr(v).
func (o ops) Set(oid gomdb.OID, attr string, v gomdb.Value) error {
	_, err := o.do(&wire.Request{Op: wire.OpSet, OID: oid, Attr: attr, Val: v}, wire.RespAck)
	return err
}

// GetAttr reads one attribute.
func (o ops) GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error) {
	resp, err := o.do(&wire.Request{Op: wire.OpGetAttr, OID: oid, Attr: attr}, wire.RespValue)
	if err != nil {
		return gomdb.Value{}, err
	}
	return resp.Val, nil
}

// Insert performs set.insert(elem).
func (o ops) Insert(set gomdb.OID, elem gomdb.Value) error {
	_, err := o.do(&wire.Request{Op: wire.OpInsert, OID: set, Val: elem}, wire.RespAck)
	return err
}

// Remove performs set.remove(elem).
func (o ops) Remove(set gomdb.OID, elem gomdb.Value) error {
	_, err := o.do(&wire.Request{Op: wire.OpRemove, OID: set, Val: elem}, wire.RespAck)
	return err
}

// Call invokes a function or operation (forward query when materialized).
func (o ops) Call(fn string, args ...gomdb.Value) (gomdb.Value, error) {
	resp, err := o.do(&wire.Request{Op: wire.OpCall, Name: fn, Args: args}, wire.RespValue)
	if err != nil {
		return gomdb.Value{}, err
	}
	return resp.Val, nil
}

// --- the rest of the embedded-API surface ----------------------------------

// Query runs a GOMql statement with named parameters.
func (c *Client) Query(src string, params map[string]gomdb.Value) (*gomdb.QueryResult, error) {
	cols, rows, err := stream(c, &wire.Request{Op: wire.OpQuery, Name: src, Params: params}, wire.StreamQuery,
		func(resp *wire.Response) [][]gomdb.Value { return resp.Rows })
	if err != nil {
		return nil, err
	}
	return &gomdb.QueryResult{Columns: cols, Rows: rows}, nil
}

// Retrieve answers a tabular GMR query.
func (c *Client) Retrieve(gmrName string, spec []gomdb.FieldSpec) ([]gomdb.Row, error) {
	_, rows, err := stream(c, &wire.Request{Op: wire.OpRetrieve, Name: gmrName, Specs: spec}, wire.StreamRows,
		func(resp *wire.Response) []gomdb.Row { return resp.GRows })
	return rows, err
}

// Backward answers a backward range query over a materialized function.
func (c *Client) Backward(fid string, lb, ub float64) ([]gomdb.Match, error) {
	_, matches, err := stream(c, &wire.Request{Op: wire.OpBackward, Name: fid, Lo: lb, Hi: ub}, wire.StreamMatches,
		func(resp *wire.Response) []gomdb.Match { return resp.Matches })
	return matches, err
}

// Extension returns the extension of a type.
func (c *Client) Extension(typeName string) ([]gomdb.OID, error) {
	_, oids, err := stream(c, &wire.Request{Op: wire.OpExtension, Name: typeName}, wire.StreamOIDs,
		func(resp *wire.Response) []gomdb.OID { return resp.OIDs })
	return oids, err
}

// Sum aggregates a materialized function over oids (nil means every
// materialized entry).
func (c *Client) Sum(fid string, oids []gomdb.OID) (float64, error) {
	resp, err := c.exchange(&wire.Request{Op: wire.OpSum, Name: fid, OIDs: oids, HasOIDs: oids != nil}, wire.RespFloat)
	if err != nil {
		return 0, err
	}
	return resp.F, nil
}

// Materialize creates a GMR on the server. Restriction predicates and
// atomic-argument restrictions are function values — code, not data — and
// cannot travel over the wire; options carrying them are rejected locally.
func (c *Client) Materialize(opts gomdb.MaterializeOptions) error {
	mat, err := wire.MatOptionsOf(opts)
	if err != nil {
		return err
	}
	_, err = c.exchange(&wire.Request{Op: wire.OpMaterialize, Mat: mat}, wire.RespAck)
	return err
}

// Dematerialize drops a GMR.
func (c *Client) Dematerialize(name string) error {
	_, err := c.exchange(&wire.Request{Op: wire.OpDematerialize, Name: name}, wire.RespAck)
	return err
}

// Flush drains the server's deferred-rematerialization queue.
func (c *Client) Flush() error {
	_, err := c.exchange(&wire.Request{Op: wire.OpFlush}, wire.RespAck)
	return err
}

// SimSeconds reads the server's simulated-cost clock.
func (c *Client) SimSeconds() (float64, error) {
	resp, err := c.exchange(&wire.Request{Op: wire.OpSimSeconds}, wire.RespFloat)
	if err != nil {
		return 0, err
	}
	return resp.F, nil
}

// --- interactive batches ---------------------------------------------------

// Batch is an open interactive update batch: the server holds the engine's
// exclusive lock until Commit or Abort. A Batch belongs to its Client's
// connection; while it is open, only batch operations may travel on it. Its
// operations are the Client's batchable ones.
type Batch struct {
	ops
	done bool
}

// BeginBatch opens an interactive batch on the server.
func (c *Client) BeginBatch() (*Batch, error) {
	if _, err := c.exchange(&wire.Request{Op: wire.OpBatchBegin}, wire.RespAck); err != nil {
		return nil, err
	}
	b := &Batch{}
	b.ops = ops{c: c, b: b}
	return b, nil
}

// Batch runs fn inside an interactive batch; fn's error aborts the batch
// (matching the embedded Batch contract: the verdict propagates, applied
// operations are not rolled back).
func (c *Client) Batch(fn func(*Batch) error) error {
	b, err := c.BeginBatch()
	if err != nil {
		return err
	}
	if err := fn(b); err != nil {
		if aerr := b.Abort(); aerr != nil {
			return fmt.Errorf("%w (abort also failed: %v)", err, aerr)
		}
		return err
	}
	return b.Commit()
}

// Commit closes the batch successfully: the server saves metadata, drains
// deferred work, and checkpoints before the ack.
func (b *Batch) Commit() error { return b.commit(false) }

// Abort closes the batch with a failure verdict. Operations already applied
// stay applied (the engine's batches are not transactional); the abort
// marks the batch failed and releases the server-side lock.
func (b *Batch) Abort() error { return b.commit(true) }

func (b *Batch) commit(abort bool) error {
	if b.done {
		return errBatchClosed
	}
	b.done = true
	_, err := b.c.exchange(&wire.Request{Op: wire.OpBatchCommit, Abort: abort}, wire.RespAck)
	return err
}
