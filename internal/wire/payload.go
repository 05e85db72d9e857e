package wire

import (
	"math"
	"sort"

	"gomdb/internal/core"
	"gomdb/internal/object"
)

// Payload encodings. Payloads are built and parsed with internal/object's
// Encoder and Decoder, the codec object records and GMR records use:
// uvarint/varint integers, little-endian IEEE 754 floats, length-prefixed
// strings and runs, and data-model values in their record form. The
// Decoder holds the hostile-input bounds — every length and count is
// checked against the bytes left before any allocation, it never panics —
// and its first error is returned once, as a CodeMalformed *Error.

// MatOptions is the serializable subset of gomdb.MaterializeOptions.
// Restriction predicates and atomic-argument restrictions are function
// values — code, not data — so they cannot travel over the wire; restricted
// GMRs stay an embedded-API feature (mirroring the durable store, which
// refuses them for the same reason).
type MatOptions struct {
	Name         string
	Funcs        []string
	Strategy     uint8
	Mode         uint8
	Complete     bool
	SecondChance bool
	UseMDS       bool
	MaxEntries   uint32
}

const (
	matComplete     = 1 << 0
	matSecondChance = 1 << 1
	matUseMDS       = 1 << 2
)

// MatOptionsOf converts engine options to their wire form, refusing what the
// wire cannot carry: restrictions, and a MaxEntries outside uint32.
func MatOptionsOf(o core.Options) (MatOptions, error) {
	if o.Restriction != nil || len(o.AtomicArgs) > 0 {
		return MatOptions{}, Errf(CodeBadRequest, "restricted GMRs cannot be created over the wire")
	}
	if o.MaxEntries < 0 || int64(o.MaxEntries) > math.MaxUint32 {
		return MatOptions{}, Errf(CodeBadRequest, "max entries %d out of wire range", o.MaxEntries)
	}
	return MatOptions{
		Name:         o.Name,
		Funcs:        o.Funcs,
		Strategy:     uint8(o.Strategy),
		Mode:         uint8(o.Mode),
		Complete:     o.Complete,
		SecondChance: o.SecondChance,
		UseMDS:       o.UseMDS,
		MaxEntries:   uint32(o.MaxEntries),
	}, nil
}

// Options converts m back to engine options, validating the enums the wire
// carries as raw bytes.
func (m *MatOptions) Options() (core.Options, error) {
	if core.Strategy(m.Strategy) > core.Deferred {
		return core.Options{}, Errf(CodeBadRequest, "bad strategy %d", m.Strategy)
	}
	if core.HookMode(m.Mode) > core.ModeInfoHiding {
		return core.Options{}, Errf(CodeBadRequest, "bad hook mode %d", m.Mode)
	}
	return core.Options{
		Name:         m.Name,
		Funcs:        m.Funcs,
		Strategy:     core.Strategy(m.Strategy),
		Mode:         core.HookMode(m.Mode),
		Complete:     m.Complete,
		SecondChance: m.SecondChance,
		UseMDS:       m.UseMDS,
		MaxEntries:   int(m.MaxEntries),
	}, nil
}

// Request is the decoded form of a request payload — a tagged union over
// every request opcode; Op selects which fields are meaningful.
type Request struct {
	Op Opcode

	// WireVersion and Token belong to OpHello.
	WireVersion uint8
	Token       string

	// Name is the opcode's primary string: the GOMql source (OpQuery), the
	// function name (OpCall, OpBackward, OpSum), the type name (OpNew,
	// OpNewSet, OpExtension), the attribute name's owner is OID below, or
	// the GMR name (OpRetrieve, OpDematerialize).
	Name string
	// Attr is the attribute name of OpGetAttr and OpSet.
	Attr string

	OID  object.OID
	Val  object.Value
	Args []object.Value

	// Params are OpQuery's named parameters (encoded in sorted key order,
	// so equal requests encode to equal bytes).
	Params map[string]object.Value

	// Specs are OpRetrieve's column constraints.
	Specs []core.FieldSpec

	// Lo and Hi bound OpBackward.
	Lo, Hi float64

	// OIDs are OpSum's argument objects; HasOIDs distinguishes "nil =
	// every materialized entry" from an explicit empty list.
	OIDs    []object.OID
	HasOIDs bool

	// Mat configures OpMaterialize.
	Mat MatOptions

	// Sub is OpBatchOp's inner operation.
	Sub *Request

	// Abort marks OpBatchCommit as a failed batch.
	Abort bool
}

// batchable reports whether op may appear inside OpBatchOp.
func batchable(op Opcode) bool {
	switch op {
	case OpNew, OpNewSet, OpDelete, OpSet, OpGetAttr, OpInsert, OpRemove, OpCall:
		return true
	}
	return false
}

// EncodeRequest encodes r's payload (the frame body for r.Op).
func EncodeRequest(r *Request) ([]byte, error) {
	var e object.Encoder
	if err := encodeRequest(&e, r); err != nil {
		return nil, err
	}
	return e.Buf, nil
}

func encodeRequest(e *object.Encoder, r *Request) error {
	switch r.Op {
	case OpHello:
		e.U8(r.WireVersion)
		e.Str(r.Token)
	case OpPing, OpGoodbye, OpFlush, OpBatchBegin, OpSimSeconds:
		// empty payload
	case OpQuery:
		e.Str(r.Name)
		keys := make([]string, 0, len(r.Params))
		for k := range r.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.Str(k)
			e.Value(r.Params[k])
		}
	case OpCall:
		e.Str(r.Name)
		e.Values(r.Args)
	case OpGetAttr:
		e.Uvarint(uint64(r.OID))
		e.Str(r.Attr)
	case OpSet:
		e.Uvarint(uint64(r.OID))
		e.Str(r.Attr)
		e.Value(r.Val)
	case OpNew, OpNewSet:
		e.Str(r.Name)
		e.Values(r.Args)
	case OpDelete:
		e.Uvarint(uint64(r.OID))
	case OpInsert, OpRemove:
		e.Uvarint(uint64(r.OID))
		e.Value(r.Val)
	case OpRetrieve:
		e.Str(r.Name)
		e.Uvarint(uint64(len(r.Specs)))
		for _, s := range r.Specs {
			var flags uint8
			if s.Exact != nil {
				flags |= 1
			}
			if s.Lo != nil {
				flags |= 2
			}
			if s.Hi != nil {
				flags |= 4
			}
			e.U8(flags)
			if s.Exact != nil {
				e.Value(*s.Exact)
			}
			if s.Lo != nil {
				e.F64(*s.Lo)
			}
			if s.Hi != nil {
				e.F64(*s.Hi)
			}
		}
	case OpBackward:
		e.Str(r.Name)
		e.F64(r.Lo)
		e.F64(r.Hi)
	case OpSum:
		e.Str(r.Name)
		e.Bool(r.HasOIDs)
		e.Uvarint(uint64(len(r.OIDs)))
		for _, o := range r.OIDs {
			e.Uvarint(uint64(o))
		}
	case OpExtension, OpDematerialize:
		e.Str(r.Name)
	case OpMaterialize:
		m := &r.Mat
		e.Str(m.Name)
		e.Uvarint(uint64(len(m.Funcs)))
		for _, f := range m.Funcs {
			e.Str(f)
		}
		e.U8(m.Strategy)
		e.U8(m.Mode)
		var flags uint8
		if m.Complete {
			flags |= matComplete
		}
		if m.SecondChance {
			flags |= matSecondChance
		}
		if m.UseMDS {
			flags |= matUseMDS
		}
		e.U8(flags)
		e.Uvarint(uint64(m.MaxEntries))
	case OpBatchOp:
		if r.Sub == nil {
			return Errf(CodeBadRequest, "batch op without sub-operation")
		}
		if !batchable(r.Sub.Op) {
			return Errf(CodeBadRequest, "opcode %s is not batchable", r.Sub.Op)
		}
		e.U8(byte(r.Sub.Op))
		return encodeRequest(e, r.Sub)
	case OpBatchCommit:
		e.Bool(r.Abort)
	default:
		return Errf(CodeUnknownOp, "opcode %s is not a request", r.Op)
	}
	return nil
}

// DecodeRequest decodes the payload of a request frame with opcode op. The
// entire payload must be consumed. Errors are structured *Errors; the
// decoder never panics. The request is fresh: a connection that decodes
// request after request uses Codec.DecodeRequest, which reuses its storage.
func DecodeRequest(op Opcode, payload []byte) (*Request, error) {
	r := new(Request)
	if err := decodeRequestInto(r, op, payload, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeRequestInto decodes a request payload into r, overwriting every
// field. The storage r's slices and Sub point into comes from u (see
// reuse); a nil u decodes everything fresh.
func decodeRequestInto(r *Request, op Opcode, payload []byte, u *reuse) error {
	d := object.NewDecoder(payload)
	if err := decodeRequest(&d, r, op, true, u); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return Wrap(CodeMalformed, "request payload", err)
	}
	return nil
}

// decodeRequest decodes one request into r. Protocol-level refusals return
// as errors; malformed bytes latch in d.
func decodeRequest(d *object.Decoder, r *Request, op Opcode, outer bool, u *reuse) error {
	*r = Request{Op: op}
	switch op {
	case OpHello:
		r.WireVersion = d.U8()
		r.Token = d.Str()
	case OpPing, OpGoodbye, OpFlush, OpBatchBegin, OpSimSeconds:
		// empty payload
	case OpQuery:
		r.Name = u.name(d)
		n := d.Count(1)
		if n > 0 {
			r.Params = make(map[string]object.Value, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				k := d.Str()
				r.Params[k] = d.Value()
			}
		}
	case OpCall, OpNew, OpNewSet:
		r.Name = u.name(d)
		r.Args = u.values(d)
	case OpGetAttr:
		r.OID = object.OID(d.Uvarint())
		r.Attr = u.name(d)
	case OpSet:
		r.OID = object.OID(d.Uvarint())
		r.Attr = u.name(d)
		r.Val = d.Value()
	case OpDelete:
		r.OID = object.OID(d.Uvarint())
	case OpInsert, OpRemove:
		r.OID = object.OID(d.Uvarint())
		r.Val = d.Value()
	case OpRetrieve:
		r.Name = u.name(d)
		n := d.Count(1)
		if n > 0 {
			r.Specs = make([]core.FieldSpec, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				flags := d.U8()
				if flags&^uint8(7) != 0 {
					d.Fail("bad field-spec flags 0x%02x", flags)
					break
				}
				if flags&1 != 0 {
					v := d.Value()
					r.Specs[i].Exact = &v
				}
				if flags&2 != 0 {
					lo := d.F64()
					r.Specs[i].Lo = &lo
				}
				if flags&4 != 0 {
					hi := d.F64()
					r.Specs[i].Hi = &hi
				}
			}
		}
	case OpBackward:
		r.Name = u.name(d)
		r.Lo = d.F64()
		r.Hi = d.F64()
	case OpSum:
		r.Name = u.name(d)
		r.HasOIDs = d.Bool()
		n := d.Count(1)
		if n > 0 {
			r.OIDs = make([]object.OID, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				r.OIDs[i] = object.OID(d.Uvarint())
			}
		}
	case OpExtension, OpDematerialize:
		r.Name = u.name(d)
	case OpMaterialize:
		m := &r.Mat
		m.Name = d.Str()
		n := d.Count(1)
		if n > 0 {
			m.Funcs = make([]string, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				m.Funcs[i] = d.Str()
			}
		}
		m.Strategy = d.U8()
		m.Mode = d.U8()
		flags := d.U8()
		if flags&^uint8(matComplete|matSecondChance|matUseMDS) != 0 {
			d.Fail("bad materialize flags 0x%02x", flags)
		}
		m.Complete = flags&matComplete != 0
		m.SecondChance = flags&matSecondChance != 0
		m.UseMDS = flags&matUseMDS != 0
		max := d.Uvarint()
		if max > math.MaxUint32 {
			d.Fail("max entries %d out of range", max)
		}
		m.MaxEntries = uint32(max)
	case OpBatchOp:
		if !outer {
			d.Fail("nested batch op")
			break
		}
		sub := Opcode(d.U8())
		if d.Err() != nil {
			break
		}
		if !batchable(sub) {
			return Errf(CodeBadRequest, "opcode %s is not batchable", sub)
		}
		r.Sub = u.request()
		return decodeRequest(d, r.Sub, sub, false, u)
	case OpBatchCommit:
		r.Abort = d.Bool()
	default:
		return Errf(CodeUnknownOp, "opcode %s is not a request", op)
	}
	return nil
}

// StreamKind selects the row encoding of a chunked result stream.
type StreamKind uint8

const (
	// StreamQuery rows are plain value tuples (GOMql results).
	StreamQuery StreamKind = 1
	// StreamRows rows are tabular GMR rows (args, results, validity).
	StreamRows StreamKind = 2
	// StreamMatches rows are backward-query matches (args, result).
	StreamMatches StreamKind = 3
	// StreamOIDs rows are bare object identifiers (extensions).
	StreamOIDs StreamKind = 4
)

func (k StreamKind) valid() bool { return k >= StreamQuery && k <= StreamOIDs }

// Response is the decoded form of a response payload — a tagged union over
// every response opcode.
type Response struct {
	Op Opcode

	// WireVersion and Shards belong to RespHello: the server's protocol
	// version and its backend shard count (1 for a plain engine).
	WireVersion uint8
	Shards      uint32

	Val object.Value // RespValue
	OID object.OID   // RespOID
	F   float64      // RespFloat

	// ErrCode and ErrMsg belong to RespError.
	ErrCode Code
	ErrMsg  string

	// Stream tags RespStreamBegin and RespChunk with the row encoding.
	Stream StreamKind
	// Columns are the result labels of a StreamQuery stream.
	Columns []string

	Rows    [][]object.Value // RespChunk, StreamQuery
	GRows   []core.Row       // RespChunk, StreamRows
	Matches []core.Match     // RespChunk, StreamMatches
	OIDs    []object.OID     // RespChunk, StreamOIDs

	// Total closes a stream (RespDone): the total row count across all
	// chunks, so the client can verify it lost nothing.
	Total uint64
}

// ErrResponse builds the RespError response for err. A top-level *Error
// sends its own message and cause, not its Error() text: the receiver
// rebuilds an *Error around the message, which prints the code prefix once.
// Any other error, an engine error above all, sends its full text.
func ErrResponse(err error) *Response {
	msg := err.Error()
	if we, ok := err.(*Error); ok {
		msg = we.Msg
		if we.Err != nil {
			msg += ": " + we.Err.Error()
		}
	}
	return &Response{Op: RespError, ErrCode: CodeOf(err), ErrMsg: msg}
}

// Err converts a RespError response back into a structured error (nil for
// any other opcode).
func (r *Response) Err() error {
	if r.Op != RespError {
		return nil
	}
	return &Error{Code: r.ErrCode, Msg: r.ErrMsg}
}

// EncodeResponse encodes r's payload (the frame body for r.Op).
func EncodeResponse(r *Response) ([]byte, error) {
	var e object.Encoder
	if err := encodeResponse(&e, r); err != nil {
		return nil, err
	}
	return e.Buf, nil
}

func encodeResponse(e *object.Encoder, r *Response) error {
	switch r.Op {
	case RespHello:
		e.U8(r.WireVersion)
		e.Uvarint(uint64(r.Shards))
	case RespAck:
		// empty payload
	case RespValue:
		e.Value(r.Val)
	case RespOID:
		e.Uvarint(uint64(r.OID))
	case RespFloat:
		e.F64(r.F)
	case RespError:
		e.Uvarint(uint64(r.ErrCode))
		e.Str(r.ErrMsg)
	case RespStreamBegin:
		e.U8(uint8(r.Stream))
		e.Uvarint(uint64(len(r.Columns)))
		for _, c := range r.Columns {
			e.Str(c)
		}
	case RespChunk:
		e.U8(uint8(r.Stream))
		switch r.Stream {
		case StreamQuery:
			e.Uvarint(uint64(len(r.Rows)))
			for _, row := range r.Rows {
				e.Values(row)
			}
		case StreamRows:
			e.Uvarint(uint64(len(r.GRows)))
			for _, row := range r.GRows {
				e.Values(row.Args)
				e.Values(row.Results)
				e.Uvarint(uint64(len(row.Valid)))
				for _, b := range row.Valid {
					e.Bool(b)
				}
			}
		case StreamMatches:
			e.Uvarint(uint64(len(r.Matches)))
			for _, m := range r.Matches {
				e.Values(m.Args)
				e.Value(m.Result)
			}
		case StreamOIDs:
			e.Uvarint(uint64(len(r.OIDs)))
			for _, o := range r.OIDs {
				e.Uvarint(uint64(o))
			}
		default:
			return Errf(CodeMalformed, "bad stream kind %d", r.Stream)
		}
	case RespDone:
		e.Uvarint(r.Total)
	default:
		return Errf(CodeUnknownOp, "opcode %s is not a response", r.Op)
	}
	return nil
}

// DecodeResponse decodes the payload of a response frame with opcode op.
// The entire payload must be consumed; errors are structured and the
// decoder never panics.
func DecodeResponse(op Opcode, payload []byte) (*Response, error) {
	r := new(Response)
	if err := decodeResponseInto(r, op, payload); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeResponseInto decodes a response payload into r, overwriting every
// field. Every slice it sets is fresh: stream rows are handed to the caller.
func decodeResponseInto(r *Response, op Opcode, payload []byte) error {
	d := object.NewDecoder(payload)
	*r = Response{Op: op}
	switch op {
	case RespHello:
		r.WireVersion = d.U8()
		sh := d.Uvarint()
		if sh > math.MaxUint32 {
			d.Fail("shard count %d out of range", sh)
		}
		r.Shards = uint32(sh)
	case RespAck:
		// empty payload
	case RespValue:
		r.Val = d.Value()
	case RespOID:
		r.OID = object.OID(d.Uvarint())
	case RespFloat:
		r.F = d.F64()
	case RespError:
		c := d.Uvarint()
		if c > math.MaxUint16 {
			d.Fail("error code %d out of range", c)
		}
		r.ErrCode = Code(c)
		r.ErrMsg = d.Str()
	case RespStreamBegin:
		r.Stream = StreamKind(d.U8())
		if !r.Stream.valid() {
			d.Fail("bad stream kind %d", r.Stream)
		}
		n := d.Count(1)
		if n > 0 {
			r.Columns = make([]string, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				r.Columns[i] = d.Str()
			}
		}
	case RespChunk:
		r.Stream = StreamKind(d.U8())
		switch r.Stream {
		case StreamQuery:
			n := d.Count(1)
			if n > 0 {
				r.Rows = make([][]object.Value, n)
				for i := 0; i < n && d.Err() == nil; i++ {
					r.Rows[i] = d.Values()
				}
			}
		case StreamRows:
			n := d.Count(1)
			if n > 0 {
				r.GRows = make([]core.Row, n)
				for i := 0; i < n && d.Err() == nil; i++ {
					r.GRows[i].Args = d.Values()
					r.GRows[i].Results = d.Values()
					nv := d.Count(1)
					if nv > 0 {
						r.GRows[i].Valid = make([]bool, nv)
						for j := 0; j < nv && d.Err() == nil; j++ {
							r.GRows[i].Valid[j] = d.Bool()
						}
					}
				}
			}
		case StreamMatches:
			n := d.Count(1)
			if n > 0 {
				r.Matches = make([]core.Match, n)
				for i := 0; i < n && d.Err() == nil; i++ {
					r.Matches[i].Args = d.Values()
					r.Matches[i].Result = d.Value()
				}
			}
		case StreamOIDs:
			n := d.Count(1)
			if n > 0 {
				r.OIDs = make([]object.OID, n)
				for i := 0; i < n && d.Err() == nil; i++ {
					r.OIDs[i] = object.OID(d.Uvarint())
				}
			}
		default:
			d.Fail("bad stream kind %d", r.Stream)
		}
	case RespDone:
		r.Total = d.Uvarint()
	default:
		return Errf(CodeUnknownOp, "opcode %s is not a response", op)
	}
	if err := d.Finish(); err != nil {
		return Wrap(CodeMalformed, "response payload", err)
	}
	return nil
}
