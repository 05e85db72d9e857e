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
	"gomdb/internal/query"
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

// Client is one protocol session.
type Client struct {
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
	c.exchange(&wire.Request{Op: wire.OpGoodbye})
	return c.conn.Close()
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	_, err := c.exchangeAck(&wire.Request{Op: wire.OpPing})
	return err
}

// --- wire plumbing ---------------------------------------------------------

var errClosed = wire.Errf(wire.CodeShutdown, "client is closed")

// exchange performs one serialized request/response round trip.
func (c *Client) exchange(req *wire.Request) (*wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTrip(req)
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

// exchangeAck round-trips req and insists on RespAck.
func (c *Client) exchangeAck(req *wire.Request) (*wire.Response, error) {
	resp, err := c.exchange(req)
	if err != nil {
		return nil, err
	}
	if resp.Op != wire.RespAck {
		return nil, wire.Errf(wire.CodeMalformed, "expected ack, got %s", resp.Op)
	}
	return resp, nil
}

// exchangeStream round-trips a streamed request: RespStreamBegin of the
// expected kind, any number of RespChunk frames, RespDone. Each chunk is
// handed to sink; the reported total is verified against the delivered row
// count, so a lost chunk cannot pass silently.
func (c *Client) exchangeStream(req *wire.Request, kind wire.StreamKind, sink func(*wire.Response) int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send(req)
	if err != nil {
		return err
	}
	begin, err := c.recv(id)
	if err != nil {
		return err
	}
	if begin.Op != wire.RespStreamBegin || begin.Stream != kind {
		return wire.Errf(wire.CodeMalformed, "expected %d-stream begin, got %s", kind, begin.Op)
	}
	sink(begin) // columns travel on the begin frame
	delivered := 0
	for {
		resp, err := c.recv(id)
		if err != nil {
			return err
		}
		switch resp.Op {
		case wire.RespChunk:
			if resp.Stream != kind {
				return wire.Errf(wire.CodeMalformed, "stream kind changed mid-stream")
			}
			delivered += sink(resp)
		case wire.RespDone:
			if uint64(delivered) != resp.Total {
				return wire.Errf(wire.CodeMalformed, "stream delivered %d rows, server sent %d", delivered, resp.Total)
			}
			return nil
		default:
			return wire.Errf(wire.CodeMalformed, "unexpected %s inside stream", resp.Op)
		}
	}
}

// --- embedded-API surface --------------------------------------------------

// Query runs a GOMql statement with named parameters.
func (c *Client) Query(src string, params map[string]gomdb.Value) (*gomdb.QueryResult, error) {
	res := &query.Result{}
	err := c.exchangeStream(&wire.Request{Op: wire.OpQuery, Name: src, Params: params}, wire.StreamQuery,
		func(resp *wire.Response) int {
			if resp.Op == wire.RespStreamBegin {
				res.Columns = resp.Columns
				return 0
			}
			res.Rows = append(res.Rows, resp.Rows...)
			return len(resp.Rows)
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Call invokes a function or operation (forward query when materialized).
func (c *Client) Call(fn string, args ...gomdb.Value) (gomdb.Value, error) {
	resp, err := c.exchange(&wire.Request{Op: wire.OpCall, Name: fn, Args: args})
	if err != nil {
		return gomdb.Value{}, err
	}
	return resp.Val, nil
}

// GetAttr reads one attribute.
func (c *Client) GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error) {
	resp, err := c.exchange(&wire.Request{Op: wire.OpGetAttr, OID: oid, Attr: attr})
	if err != nil {
		return gomdb.Value{}, err
	}
	return resp.Val, nil
}

// Set performs the elementary update oid.set_attr(v).
func (c *Client) Set(oid gomdb.OID, attr string, v gomdb.Value) error {
	_, err := c.exchangeAck(&wire.Request{Op: wire.OpSet, OID: oid, Attr: attr, Val: v})
	return err
}

// New creates a tuple-structured instance.
func (c *Client) New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	resp, err := c.exchange(&wire.Request{Op: wire.OpNew, Name: typeName, Args: attrs})
	if err != nil {
		return 0, err
	}
	return resp.OID, nil
}

// NewSet creates a set- or list-structured instance.
func (c *Client) NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error) {
	resp, err := c.exchange(&wire.Request{Op: wire.OpNewSet, Name: typeName, Args: elems})
	if err != nil {
		return 0, err
	}
	return resp.OID, nil
}

// Delete removes an object.
func (c *Client) Delete(oid gomdb.OID) error {
	_, err := c.exchangeAck(&wire.Request{Op: wire.OpDelete, OID: oid})
	return err
}

// Insert performs set.insert(elem).
func (c *Client) Insert(set gomdb.OID, elem gomdb.Value) error {
	_, err := c.exchangeAck(&wire.Request{Op: wire.OpInsert, OID: set, Val: elem})
	return err
}

// Remove performs set.remove(elem).
func (c *Client) Remove(set gomdb.OID, elem gomdb.Value) error {
	_, err := c.exchangeAck(&wire.Request{Op: wire.OpRemove, OID: set, Val: elem})
	return err
}

// Retrieve answers a tabular GMR query.
func (c *Client) Retrieve(gmrName string, spec []gomdb.FieldSpec) ([]gomdb.Row, error) {
	var rows []gomdb.Row
	err := c.exchangeStream(&wire.Request{Op: wire.OpRetrieve, Name: gmrName, Specs: spec}, wire.StreamRows,
		func(resp *wire.Response) int {
			rows = append(rows, resp.GRows...)
			return len(resp.GRows)
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Backward answers a backward range query over a materialized function.
func (c *Client) Backward(fid string, lb, ub float64) ([]gomdb.Match, error) {
	var matches []gomdb.Match
	err := c.exchangeStream(&wire.Request{Op: wire.OpBackward, Name: fid, Lo: lb, Hi: ub}, wire.StreamMatches,
		func(resp *wire.Response) int {
			matches = append(matches, resp.Matches...)
			return len(resp.Matches)
		})
	if err != nil {
		return nil, err
	}
	return matches, nil
}

// Sum aggregates a materialized function over oids (nil means every
// materialized entry).
func (c *Client) Sum(fid string, oids []gomdb.OID) (float64, error) {
	resp, err := c.exchange(&wire.Request{Op: wire.OpSum, Name: fid, OIDs: oids, HasOIDs: oids != nil})
	if err != nil {
		return 0, err
	}
	if resp.Op != wire.RespFloat {
		return 0, wire.Errf(wire.CodeMalformed, "expected float, got %s", resp.Op)
	}
	return resp.F, nil
}

// Extension returns the extension of a type.
func (c *Client) Extension(typeName string) ([]gomdb.OID, error) {
	var oids []gomdb.OID
	err := c.exchangeStream(&wire.Request{Op: wire.OpExtension, Name: typeName}, wire.StreamOIDs,
		func(resp *wire.Response) int {
			oids = append(oids, resp.OIDs...)
			return len(resp.OIDs)
		})
	if err != nil {
		return nil, err
	}
	return oids, nil
}

// Materialize creates a GMR on the server. Restriction predicates and
// atomic-argument restrictions are function values — code, not data — and
// cannot travel over the wire; options carrying them are rejected locally.
func (c *Client) Materialize(opts gomdb.MaterializeOptions) error {
	if opts.Restriction != nil || len(opts.AtomicArgs) > 0 {
		return wire.Errf(wire.CodeBadRequest, "restricted GMRs cannot be created over the wire")
	}
	if opts.MaxEntries < 0 || int64(opts.MaxEntries) > int64(^uint32(0)) {
		return wire.Errf(wire.CodeBadRequest, "max entries %d out of wire range", opts.MaxEntries)
	}
	_, err := c.exchangeAck(&wire.Request{Op: wire.OpMaterialize, Mat: wire.MatOptions{
		Name:         opts.Name,
		Funcs:        opts.Funcs,
		Strategy:     uint8(opts.Strategy),
		Mode:         uint8(opts.Mode),
		Complete:     opts.Complete,
		SecondChance: opts.SecondChance,
		UseMDS:       opts.UseMDS,
		MaxEntries:   uint32(opts.MaxEntries),
	}})
	return err
}

// Dematerialize drops a GMR.
func (c *Client) Dematerialize(name string) error {
	_, err := c.exchangeAck(&wire.Request{Op: wire.OpDematerialize, Name: name})
	return err
}

// Flush drains the server's deferred-rematerialization queue.
func (c *Client) Flush() error {
	_, err := c.exchangeAck(&wire.Request{Op: wire.OpFlush})
	return err
}

// SimSeconds reads the server's simulated-cost clock.
func (c *Client) SimSeconds() (float64, error) {
	resp, err := c.exchange(&wire.Request{Op: wire.OpSimSeconds})
	if err != nil {
		return 0, err
	}
	if resp.Op != wire.RespFloat {
		return 0, wire.Errf(wire.CodeMalformed, "expected float, got %s", resp.Op)
	}
	return resp.F, nil
}

// --- interactive batches ---------------------------------------------------

// Batch is an open interactive update batch: the server holds the engine's
// exclusive lock until Commit or Abort. A Batch belongs to its Client's
// connection; while it is open, only batch operations may travel on it.
type Batch struct {
	c    *Client
	done bool
}

// BeginBatch opens an interactive batch on the server.
func (c *Client) BeginBatch() (*Batch, error) {
	if _, err := c.exchangeAck(&wire.Request{Op: wire.OpBatchBegin}); err != nil {
		return nil, err
	}
	return &Batch{c: c}, nil
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

func (b *Batch) sub(sub *wire.Request) (*wire.Response, error) {
	if b.done {
		return nil, wire.Errf(wire.CodeBatch, "batch already closed")
	}
	return b.c.exchange(&wire.Request{Op: wire.OpBatchOp, Sub: sub})
}

// New creates a tuple-structured instance inside the batch.
func (b *Batch) New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error) {
	resp, err := b.sub(&wire.Request{Op: wire.OpNew, Name: typeName, Args: attrs})
	if err != nil {
		return 0, err
	}
	return resp.OID, nil
}

// NewSet creates a set-structured instance inside the batch.
func (b *Batch) NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error) {
	resp, err := b.sub(&wire.Request{Op: wire.OpNewSet, Name: typeName, Args: elems})
	if err != nil {
		return 0, err
	}
	return resp.OID, nil
}

// Delete removes an object inside the batch.
func (b *Batch) Delete(oid gomdb.OID) error {
	_, err := b.sub(&wire.Request{Op: wire.OpDelete, OID: oid})
	return err
}

// Set performs oid.set_attr(v) inside the batch.
func (b *Batch) Set(oid gomdb.OID, attr string, v gomdb.Value) error {
	_, err := b.sub(&wire.Request{Op: wire.OpSet, OID: oid, Attr: attr, Val: v})
	return err
}

// GetAttr reads one attribute inside the batch.
func (b *Batch) GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error) {
	resp, err := b.sub(&wire.Request{Op: wire.OpGetAttr, OID: oid, Attr: attr})
	if err != nil {
		return gomdb.Value{}, err
	}
	return resp.Val, nil
}

// Insert performs set.insert(elem) inside the batch.
func (b *Batch) Insert(set gomdb.OID, elem gomdb.Value) error {
	_, err := b.sub(&wire.Request{Op: wire.OpInsert, OID: set, Val: elem})
	return err
}

// Remove performs set.remove(elem) inside the batch.
func (b *Batch) Remove(set gomdb.OID, elem gomdb.Value) error {
	_, err := b.sub(&wire.Request{Op: wire.OpRemove, OID: set, Val: elem})
	return err
}

// Call invokes a function inside the batch.
func (b *Batch) Call(fn string, args ...gomdb.Value) (gomdb.Value, error) {
	resp, err := b.sub(&wire.Request{Op: wire.OpCall, Name: fn, Args: args})
	if err != nil {
		return gomdb.Value{}, err
	}
	return resp.Val, nil
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
		return wire.Errf(wire.CodeBatch, "batch already closed")
	}
	b.done = true
	_, err := b.c.exchangeAck(&wire.Request{Op: wire.OpBatchCommit, Abort: abort})
	return err
}
