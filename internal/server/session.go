package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"gomdb"
	"gomdb/internal/wire"
)

// errDisconnected is the batch verdict when the client vanished mid-batch.
var errDisconnected = wire.Errf(wire.CodeBatch, "client disconnected mid-batch")

// errAborted is the batch verdict for an explicit client abort. The engine's
// batches are not transactional: operations already applied stay applied;
// the abort verdict marks the batch failed and releases the lock.
var errAborted = wire.Errf(wire.CodeBatch, "batch aborted by client")

// session serves one connection: handshake, then a strict request/response
// loop (one request in flight per connection; streamed results interleave
// nothing else).
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader

	// mu guards tx: the serve goroutine opens and closes it, while Stats
	// and teardown (the server's release path) inspect it concurrently.
	mu sync.Mutex
	tx Tx

	torn bool
}

func newSession(srv *Server, conn net.Conn) *session {
	return &session{srv: srv, conn: conn, br: bufio.NewReader(conn)}
}

// holdsBatch reports whether an interactive batch is open.
func (ss *session) holdsBatch() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.tx != nil
}

// takeTx detaches and returns the open batch handle (nil if none).
func (ss *session) takeTx() Tx {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	tx := ss.tx
	ss.tx = nil
	return tx
}

func (ss *session) setTx(tx Tx) {
	ss.mu.Lock()
	ss.tx = tx
	ss.mu.Unlock()
}

// interruptRead kicks the session out of a blocking frame read (drain).
func (ss *session) interruptRead() {
	ss.conn.SetReadDeadline(time.Now())
}

// teardown closes the connection and force-closes any batch the session
// still holds, releasing the engine's exclusive lock. Idempotent; reports
// whether a batch had to be aborted.
func (ss *session) teardown() bool {
	ss.mu.Lock()
	if ss.torn {
		ss.mu.Unlock()
		return false
	}
	ss.torn = true
	ss.mu.Unlock()
	ss.conn.Close()
	if tx := ss.takeTx(); tx != nil {
		ss.srv.cfg.Backend.EndTx(tx, errDisconnected)
		return true
	}
	return false
}

// serve runs the session to completion: handshake first, then the request
// loop. Any return path flows into the server's release, which calls
// teardown.
func (ss *session) serve() {
	if !ss.handshake() {
		return
	}
	for {
		if ss.srv.isDraining() {
			return
		}
		frame, err := ss.readFrame()
		if err != nil {
			// Clean close at a frame boundary, peer reset, drain kick, or
			// idle timeout: just drop the session. A protocol violation
			// (bad magic, CRC, version skew, truncation) gets a
			// best-effort error frame first — framing is lost, so the
			// session cannot continue either way.
			if answerable(err) {
				ss.writeResponse(0, wire.ErrResponse(err))
			}
			return
		}
		ss.srv.countRequest()
		if !ss.dispatch(frame) {
			return
		}
	}
}

// handshake enforces hello-first: exactly one OpHello with a supported
// protocol version and a valid token before anything else is served.
func (ss *session) handshake() bool {
	frame, err := ss.readFrame()
	if err != nil {
		if answerable(err) {
			ss.writeResponse(0, wire.ErrResponse(err))
		}
		return false
	}
	ss.srv.countRequest()
	fail := func(err error) bool {
		ss.writeResponse(frame.ReqID, wire.ErrResponse(err))
		return false
	}
	if frame.Op != wire.OpHello {
		return fail(wire.Errf(wire.CodeBadRequest, "first frame must be hello, got %s", frame.Op))
	}
	req, err := wire.DecodeRequest(frame.Op, frame.Payload)
	if err != nil {
		return fail(err)
	}
	if req.WireVersion != wire.Version {
		return fail(wire.Errf(wire.CodeVersion, "client speaks protocol %d, server speaks %d", req.WireVersion, wire.Version))
	}
	if !ss.srv.authOK(req.Token) {
		ss.srv.countAuthFailure()
		return fail(wire.Errf(wire.CodeAuth, "bad auth token"))
	}
	return ss.writeResponse(frame.ReqID, &wire.Response{
		Op:          wire.RespHello,
		WireVersion: wire.Version,
		Shards:      uint32(ss.srv.cfg.Backend.Shards()),
	})
}

// answerable reports whether a frame-read failure deserves a best-effort
// error frame: the peer is still connected but spoke garbage (bad magic,
// version skew, corrupt CRC, oversized or malformed frames). Transport
// conditions — clean EOF, peer reset, and deadline kicks from the drain or
// idle timers — just close the session silently.
func answerable(err error) bool {
	var we *wire.Error
	if !errors.As(err, &we) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return true
}

// readFrame reads one frame under the configured idle deadline.
func (ss *session) readFrame() (*wire.Frame, error) {
	if t := ss.srv.cfg.ReadTimeout; t > 0 {
		ss.conn.SetReadDeadline(time.Now().Add(t))
	}
	return wire.ReadFrame(ss.br)
}

// writeResponse encodes and writes one response frame under the write
// deadline. A false return means the connection is unusable.
func (ss *session) writeResponse(reqID uint64, resp *wire.Response) bool {
	payload, err := wire.EncodeResponse(resp)
	if err != nil {
		// Server-side encoding bug surfaced as a response: fall back to an
		// error frame so the client is not left waiting.
		resp = wire.ErrResponse(err)
		if payload, err = wire.EncodeResponse(resp); err != nil {
			return false
		}
	}
	if t := ss.srv.cfg.WriteTimeout; t > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(t))
	}
	return wire.WriteFrame(ss.conn, &wire.Frame{Op: resp.Op, ReqID: reqID, Payload: payload}) == nil
}

// reply is the common "engine call produced (resp, err)" path.
func (ss *session) reply(reqID uint64, resp *wire.Response, err error) bool {
	if err != nil {
		return ss.writeResponse(reqID, wire.ErrResponse(err))
	}
	return ss.writeResponse(reqID, resp)
}

// dispatch serves one request frame. A false return ends the session.
func (ss *session) dispatch(frame *wire.Frame) bool {
	req, err := wire.DecodeRequest(frame.Op, frame.Payload)
	if err != nil {
		// Framing is intact (length and CRC checked out), so a garbage
		// payload is answered and the session continues.
		return ss.writeResponse(frame.ReqID, wire.ErrResponse(err))
	}
	id := frame.ReqID
	be := ss.srv.cfg.Backend

	// While an interactive batch is open, this session holds the engine's
	// exclusive lock; dispatching a non-batch update here would deadlock
	// the session against itself, so only batch and liveness opcodes pass.
	if ss.holdsBatch() {
		switch req.Op {
		case wire.OpBatchOp, wire.OpBatchCommit, wire.OpPing, wire.OpGoodbye, wire.OpSimSeconds:
		default:
			return ss.writeResponse(id, wire.ErrResponse(
				wire.Errf(wire.CodeBatch, "%s not allowed while a batch is open", req.Op)))
		}
	}

	switch req.Op {
	case wire.OpHello:
		return ss.writeResponse(id, wire.ErrResponse(
			wire.Errf(wire.CodeBadRequest, "duplicate hello")))
	case wire.OpPing:
		return ss.writeResponse(id, &wire.Response{Op: wire.RespAck})
	case wire.OpGoodbye:
		ss.writeResponse(id, &wire.Response{Op: wire.RespAck})
		return false
	case wire.OpSimSeconds:
		return ss.writeResponse(id, &wire.Response{Op: wire.RespFloat, F: be.SimSeconds()})

	case wire.OpQuery:
		res, err := be.Query(req.Name, req.Params)
		if err != nil {
			return ss.writeResponse(id, wire.ErrResponse(err))
		}
		return ss.stream(id, wire.StreamQuery, res.Columns, len(res.Rows), func(lo, hi int) *wire.Response {
			return &wire.Response{Op: wire.RespChunk, Stream: wire.StreamQuery, Rows: res.Rows[lo:hi]}
		})
	case wire.OpRetrieve:
		rows, err := be.Retrieve(req.Name, req.Specs)
		if err != nil {
			return ss.writeResponse(id, wire.ErrResponse(err))
		}
		return ss.stream(id, wire.StreamRows, nil, len(rows), func(lo, hi int) *wire.Response {
			return &wire.Response{Op: wire.RespChunk, Stream: wire.StreamRows, GRows: rows[lo:hi]}
		})
	case wire.OpBackward:
		matches, err := be.Backward(req.Name, req.Lo, req.Hi)
		if err != nil {
			return ss.writeResponse(id, wire.ErrResponse(err))
		}
		return ss.stream(id, wire.StreamMatches, nil, len(matches), func(lo, hi int) *wire.Response {
			return &wire.Response{Op: wire.RespChunk, Stream: wire.StreamMatches, Matches: matches[lo:hi]}
		})
	case wire.OpExtension:
		oids := be.Extension(req.Name)
		return ss.stream(id, wire.StreamOIDs, nil, len(oids), func(lo, hi int) *wire.Response {
			return &wire.Response{Op: wire.RespChunk, Stream: wire.StreamOIDs, OIDs: oids[lo:hi]}
		})
	case wire.OpSum:
		var oids []gomdb.OID
		if req.HasOIDs {
			oids = req.OIDs
			if oids == nil {
				oids = []gomdb.OID{}
			}
		}
		f, err := be.Sum(req.Name, oids)
		return ss.reply(id, &wire.Response{Op: wire.RespFloat, F: f}, err)

	case wire.OpMaterialize:
		opts, err := req.Mat.Options()
		if err != nil {
			return ss.writeResponse(id, wire.ErrResponse(err))
		}
		return ss.reply(id, &wire.Response{Op: wire.RespAck}, be.MaterializeGMR(opts))
	case wire.OpDematerialize:
		return ss.reply(id, &wire.Response{Op: wire.RespAck}, be.Dematerialize(req.Name))
	case wire.OpFlush:
		return ss.reply(id, &wire.Response{Op: wire.RespAck}, be.Flush())

	case wire.OpBatchBegin:
		if ss.holdsBatch() {
			return ss.writeResponse(id, wire.ErrResponse(
				wire.Errf(wire.CodeBatch, "batch already open")))
		}
		ss.setTx(be.BeginTx())
		return ss.writeResponse(id, &wire.Response{Op: wire.RespAck})
	case wire.OpBatchOp:
		ss.mu.Lock()
		tx := ss.tx
		ss.mu.Unlock()
		if tx == nil {
			return ss.writeResponse(id, wire.ErrResponse(
				wire.Errf(wire.CodeBatch, "no batch open")))
		}
		// The decoder guarantees a batchable sub-operation.
		return ss.apply(id, tx, req.Sub)
	case wire.OpBatchCommit:
		tx := ss.takeTx()
		if tx == nil {
			return ss.writeResponse(id, wire.ErrResponse(
				wire.Errf(wire.CodeBatch, "no batch open")))
		}
		var verdict error
		if req.Abort {
			verdict = errAborted
		}
		err := ss.srv.cfg.Backend.EndTx(tx, verdict)
		if req.Abort && errors.Is(err, errAborted) {
			// The client asked for the abort; acknowledging it is success.
			err = nil
		}
		return ss.reply(id, &wire.Response{Op: wire.RespAck}, err)

	default:
		return ss.apply(id, be, req)
	}
}

// apply serves the batchable operations against t: the backend for a
// top-level request, the open batch for an OpBatchOp sub-operation.
func (ss *session) apply(id uint64, t Tx, req *wire.Request) bool {
	switch req.Op {
	case wire.OpNew:
		oid, err := t.New(req.Name, req.Args...)
		return ss.reply(id, &wire.Response{Op: wire.RespOID, OID: oid}, err)
	case wire.OpNewSet:
		oid, err := t.NewSet(req.Name, req.Args...)
		return ss.reply(id, &wire.Response{Op: wire.RespOID, OID: oid}, err)
	case wire.OpDelete:
		return ss.reply(id, &wire.Response{Op: wire.RespAck}, t.Delete(req.OID))
	case wire.OpSet:
		return ss.reply(id, &wire.Response{Op: wire.RespAck}, t.Set(req.OID, req.Attr, req.Val))
	case wire.OpGetAttr:
		v, err := t.GetAttr(req.OID, req.Attr)
		return ss.reply(id, &wire.Response{Op: wire.RespValue, Val: v}, err)
	case wire.OpInsert:
		return ss.reply(id, &wire.Response{Op: wire.RespAck}, t.Insert(req.OID, req.Val))
	case wire.OpRemove:
		return ss.reply(id, &wire.Response{Op: wire.RespAck}, t.Remove(req.OID, req.Val))
	case wire.OpCall:
		v, err := t.Call(req.Name, req.Args...)
		return ss.reply(id, &wire.Response{Op: wire.RespValue, Val: v}, err)
	default:
		return ss.writeResponse(id, wire.ErrResponse(
			wire.Errf(wire.CodeUnknownOp, "opcode %s is not servable", req.Op)))
	}
}

// stream writes a result set as RespStreamBegin, bounded RespChunk frames,
// and RespDone carrying the total row count.
func (ss *session) stream(id uint64, kind wire.StreamKind, columns []string, total int, chunk func(lo, hi int) *wire.Response) bool {
	if !ss.writeResponse(id, &wire.Response{Op: wire.RespStreamBegin, Stream: kind, Columns: columns}) {
		return false
	}
	size := ss.srv.cfg.ChunkRows
	for lo := 0; lo < total; lo += size {
		hi := lo + size
		if hi > total {
			hi = total
		}
		if !ss.writeResponse(id, chunk(lo, hi)) {
			return false
		}
	}
	return ss.writeResponse(id, &wire.Response{Op: wire.RespDone, Total: uint64(total)})
}
