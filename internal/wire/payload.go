package wire

import (
	"encoding/binary"
	"math"
	"sort"

	"gomdb/internal/core"
	"gomdb/internal/object"
)

// Payload encodings. Primitives follow the storage layer's conventions:
// uvarint/varint for integers, little-endian IEEE 754 for floats,
// length-prefixed strings, and object.EncodeValue for data-model values.
// Every count is bounds-checked against the remaining payload before any
// allocation (each element occupies at least one byte), so a hostile count
// cannot make the decoder allocate unboundedly; the decoder returns
// structured errors and never panics.

// enc is the payload encoder.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8)       { e.buf = append(e.buf, v) }
func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) f64(v float64)    { e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v)) }
func (e *enc) bool(b bool) {
	if b {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string)       { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) val(v object.Value) { e.buf = append(e.buf, object.EncodeValue(v)...) }

func (e *enc) vals(vs []object.Value) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.val(v)
	}
}

// dec is the payload decoder. The first violation latches in err; every
// accessor is a no-op afterwards, so decode paths read straight through.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(code Code, format string, args ...any) {
	if d.err == nil {
		d.err = Errf(code, format, args...)
	}
}

func (d *dec) rem() int { return len(d.buf) - d.off }

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(CodeMalformed, "truncated payload (u8 at %d)", d.off)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) bool() bool { return d.u8() != 0 }

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(CodeMalformed, "truncated payload (uvarint at %d)", d.off)
		return 0
	}
	d.off += n
	return v
}

// count decodes a collection count and verifies it fits in the remaining
// bytes (each element is at least one byte).
func (d *dec) count() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.rem()) {
		d.fail(CodeMalformed, "count %d exceeds remaining %d bytes", n, d.rem())
		return 0
	}
	return int(n)
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.rem() < 8 {
		d.fail(CodeMalformed, "truncated payload (f64 at %d)", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.rem()) {
		d.fail(CodeMalformed, "string length %d exceeds remaining %d bytes", n, d.rem())
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) val() object.Value {
	if d.err != nil {
		return object.Null()
	}
	v, n, err := object.DecodeValue(d.buf[d.off:])
	if err != nil {
		d.fail(CodeMalformed, "bad value at %d: %v", d.off, err)
		return object.Null()
	}
	d.off += n
	return v
}

func (d *dec) vals() []object.Value {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]object.Value, n)
	for i := range vs {
		vs[i] = d.val()
	}
	return vs
}

// finish verifies the whole payload was consumed; trailing bytes mean the
// peer and this decoder disagree about the encoding.
func (d *dec) finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = Errf(CodeMalformed, "%d trailing payload bytes", len(d.buf)-d.off)
	}
	return d.err
}

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
	var e enc
	if err := encodeRequest(&e, r); err != nil {
		return nil, err
	}
	return e.buf, nil
}

func encodeRequest(e *enc, r *Request) error {
	switch r.Op {
	case OpHello:
		e.u8(r.WireVersion)
		e.str(r.Token)
	case OpPing, OpGoodbye, OpFlush, OpBatchBegin, OpSimSeconds:
		// empty payload
	case OpQuery:
		e.str(r.Name)
		keys := make([]string, 0, len(r.Params))
		for k := range r.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.str(k)
			e.val(r.Params[k])
		}
	case OpCall:
		e.str(r.Name)
		e.vals(r.Args)
	case OpGetAttr:
		e.uvarint(uint64(r.OID))
		e.str(r.Attr)
	case OpSet:
		e.uvarint(uint64(r.OID))
		e.str(r.Attr)
		e.val(r.Val)
	case OpNew, OpNewSet:
		e.str(r.Name)
		e.vals(r.Args)
	case OpDelete:
		e.uvarint(uint64(r.OID))
	case OpInsert, OpRemove:
		e.uvarint(uint64(r.OID))
		e.val(r.Val)
	case OpRetrieve:
		e.str(r.Name)
		e.uvarint(uint64(len(r.Specs)))
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
			e.u8(flags)
			if s.Exact != nil {
				e.val(*s.Exact)
			}
			if s.Lo != nil {
				e.f64(*s.Lo)
			}
			if s.Hi != nil {
				e.f64(*s.Hi)
			}
		}
	case OpBackward:
		e.str(r.Name)
		e.f64(r.Lo)
		e.f64(r.Hi)
	case OpSum:
		e.str(r.Name)
		e.bool(r.HasOIDs)
		e.uvarint(uint64(len(r.OIDs)))
		for _, o := range r.OIDs {
			e.uvarint(uint64(o))
		}
	case OpExtension, OpDematerialize:
		e.str(r.Name)
	case OpMaterialize:
		m := &r.Mat
		e.str(m.Name)
		e.uvarint(uint64(len(m.Funcs)))
		for _, f := range m.Funcs {
			e.str(f)
		}
		e.u8(m.Strategy)
		e.u8(m.Mode)
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
		e.u8(flags)
		e.uvarint(uint64(m.MaxEntries))
	case OpBatchOp:
		if r.Sub == nil {
			return Errf(CodeBadRequest, "batch op without sub-operation")
		}
		if !batchable(r.Sub.Op) {
			return Errf(CodeBadRequest, "opcode %s is not batchable", r.Sub.Op)
		}
		e.u8(byte(r.Sub.Op))
		return encodeRequest(e, r.Sub)
	case OpBatchCommit:
		e.bool(r.Abort)
	default:
		return Errf(CodeUnknownOp, "opcode %s is not a request", r.Op)
	}
	return nil
}

// DecodeRequest decodes the payload of a request frame with opcode op. The
// entire payload must be consumed. Errors are structured *Errors; the
// decoder never panics.
func DecodeRequest(op Opcode, payload []byte) (*Request, error) {
	d := &dec{buf: payload}
	r, err := decodeRequest(d, op, true)
	if err != nil {
		return nil, err
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

func decodeRequest(d *dec, op Opcode, outer bool) (*Request, error) {
	r := &Request{Op: op}
	switch op {
	case OpHello:
		r.WireVersion = d.u8()
		r.Token = d.str()
	case OpPing, OpGoodbye, OpFlush, OpBatchBegin, OpSimSeconds:
		// empty payload
	case OpQuery:
		r.Name = d.str()
		n := d.count()
		if n > 0 {
			r.Params = make(map[string]object.Value, n)
			for i := 0; i < n && d.err == nil; i++ {
				k := d.str()
				r.Params[k] = d.val()
			}
		}
	case OpCall:
		r.Name = d.str()
		r.Args = d.vals()
	case OpGetAttr:
		r.OID = object.OID(d.uvarint())
		r.Attr = d.str()
	case OpSet:
		r.OID = object.OID(d.uvarint())
		r.Attr = d.str()
		r.Val = d.val()
	case OpNew, OpNewSet:
		r.Name = d.str()
		r.Args = d.vals()
	case OpDelete:
		r.OID = object.OID(d.uvarint())
	case OpInsert, OpRemove:
		r.OID = object.OID(d.uvarint())
		r.Val = d.val()
	case OpRetrieve:
		r.Name = d.str()
		n := d.count()
		if n > 0 {
			r.Specs = make([]core.FieldSpec, n)
			for i := 0; i < n && d.err == nil; i++ {
				flags := d.u8()
				if flags&^uint8(7) != 0 {
					d.fail(CodeMalformed, "bad field-spec flags 0x%02x", flags)
					break
				}
				if flags&1 != 0 {
					v := d.val()
					r.Specs[i].Exact = &v
				}
				if flags&2 != 0 {
					lo := d.f64()
					r.Specs[i].Lo = &lo
				}
				if flags&4 != 0 {
					hi := d.f64()
					r.Specs[i].Hi = &hi
				}
			}
		}
	case OpBackward:
		r.Name = d.str()
		r.Lo = d.f64()
		r.Hi = d.f64()
	case OpSum:
		r.Name = d.str()
		r.HasOIDs = d.bool()
		n := d.count()
		if n > 0 {
			r.OIDs = make([]object.OID, n)
			for i := 0; i < n && d.err == nil; i++ {
				r.OIDs[i] = object.OID(d.uvarint())
			}
		}
	case OpExtension, OpDematerialize:
		r.Name = d.str()
	case OpMaterialize:
		m := &r.Mat
		m.Name = d.str()
		n := d.count()
		if n > 0 {
			m.Funcs = make([]string, n)
			for i := 0; i < n && d.err == nil; i++ {
				m.Funcs[i] = d.str()
			}
		}
		m.Strategy = d.u8()
		m.Mode = d.u8()
		flags := d.u8()
		if flags&^uint8(matComplete|matSecondChance|matUseMDS) != 0 {
			d.fail(CodeMalformed, "bad materialize flags 0x%02x", flags)
		}
		m.Complete = flags&matComplete != 0
		m.SecondChance = flags&matSecondChance != 0
		m.UseMDS = flags&matUseMDS != 0
		max := d.uvarint()
		if max > math.MaxUint32 {
			d.fail(CodeMalformed, "max entries %d out of range", max)
		}
		m.MaxEntries = uint32(max)
	case OpBatchOp:
		if !outer {
			d.fail(CodeMalformed, "nested batch op")
			break
		}
		sub := Opcode(d.u8())
		if d.err == nil && !batchable(sub) {
			return nil, Errf(CodeBadRequest, "opcode %s is not batchable", sub)
		}
		if d.err == nil {
			inner, err := decodeRequest(d, sub, false)
			if err != nil {
				return nil, err
			}
			r.Sub = inner
		}
	case OpBatchCommit:
		r.Abort = d.bool()
	default:
		return nil, Errf(CodeUnknownOp, "opcode %s is not a request", op)
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
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
	var e enc
	switch r.Op {
	case RespHello:
		e.u8(r.WireVersion)
		e.uvarint(uint64(r.Shards))
	case RespAck:
		// empty payload
	case RespValue:
		e.val(r.Val)
	case RespOID:
		e.uvarint(uint64(r.OID))
	case RespFloat:
		e.f64(r.F)
	case RespError:
		e.uvarint(uint64(r.ErrCode))
		e.str(r.ErrMsg)
	case RespStreamBegin:
		e.u8(uint8(r.Stream))
		e.uvarint(uint64(len(r.Columns)))
		for _, c := range r.Columns {
			e.str(c)
		}
	case RespChunk:
		e.u8(uint8(r.Stream))
		switch r.Stream {
		case StreamQuery:
			e.uvarint(uint64(len(r.Rows)))
			for _, row := range r.Rows {
				e.vals(row)
			}
		case StreamRows:
			e.uvarint(uint64(len(r.GRows)))
			for _, row := range r.GRows {
				e.vals(row.Args)
				e.vals(row.Results)
				e.uvarint(uint64(len(row.Valid)))
				for _, b := range row.Valid {
					e.bool(b)
				}
			}
		case StreamMatches:
			e.uvarint(uint64(len(r.Matches)))
			for _, m := range r.Matches {
				e.vals(m.Args)
				e.val(m.Result)
			}
		case StreamOIDs:
			e.uvarint(uint64(len(r.OIDs)))
			for _, o := range r.OIDs {
				e.uvarint(uint64(o))
			}
		default:
			return nil, Errf(CodeMalformed, "bad stream kind %d", r.Stream)
		}
	case RespDone:
		e.uvarint(r.Total)
	default:
		return nil, Errf(CodeUnknownOp, "opcode %s is not a response", r.Op)
	}
	return e.buf, nil
}

// DecodeResponse decodes the payload of a response frame with opcode op.
// The entire payload must be consumed; errors are structured and the
// decoder never panics.
func DecodeResponse(op Opcode, payload []byte) (*Response, error) {
	d := &dec{buf: payload}
	r := &Response{Op: op}
	switch op {
	case RespHello:
		r.WireVersion = d.u8()
		sh := d.uvarint()
		if sh > math.MaxUint32 {
			d.fail(CodeMalformed, "shard count %d out of range", sh)
		}
		r.Shards = uint32(sh)
	case RespAck:
		// empty payload
	case RespValue:
		r.Val = d.val()
	case RespOID:
		r.OID = object.OID(d.uvarint())
	case RespFloat:
		r.F = d.f64()
	case RespError:
		c := d.uvarint()
		if c > math.MaxUint16 {
			d.fail(CodeMalformed, "error code %d out of range", c)
		}
		r.ErrCode = Code(c)
		r.ErrMsg = d.str()
	case RespStreamBegin:
		r.Stream = StreamKind(d.u8())
		if d.err == nil && !r.Stream.valid() {
			d.fail(CodeMalformed, "bad stream kind %d", r.Stream)
		}
		n := d.count()
		if n > 0 {
			r.Columns = make([]string, n)
			for i := 0; i < n && d.err == nil; i++ {
				r.Columns[i] = d.str()
			}
		}
	case RespChunk:
		r.Stream = StreamKind(d.u8())
		switch r.Stream {
		case StreamQuery:
			n := d.count()
			if n > 0 {
				r.Rows = make([][]object.Value, n)
				for i := 0; i < n && d.err == nil; i++ {
					r.Rows[i] = d.vals()
				}
			}
		case StreamRows:
			n := d.count()
			if n > 0 {
				r.GRows = make([]core.Row, n)
				for i := 0; i < n && d.err == nil; i++ {
					r.GRows[i].Args = d.vals()
					r.GRows[i].Results = d.vals()
					nv := d.count()
					if nv > 0 {
						r.GRows[i].Valid = make([]bool, nv)
						for j := 0; j < nv && d.err == nil; j++ {
							r.GRows[i].Valid[j] = d.bool()
						}
					}
				}
			}
		case StreamMatches:
			n := d.count()
			if n > 0 {
				r.Matches = make([]core.Match, n)
				for i := 0; i < n && d.err == nil; i++ {
					r.Matches[i].Args = d.vals()
					r.Matches[i].Result = d.val()
				}
			}
		case StreamOIDs:
			n := d.count()
			if n > 0 {
				r.OIDs = make([]object.OID, n)
				for i := 0; i < n && d.err == nil; i++ {
					r.OIDs[i] = object.OID(d.uvarint())
				}
			}
		default:
			if d.err == nil {
				d.fail(CodeMalformed, "bad stream kind %d", r.Stream)
			}
		}
	case RespDone:
		r.Total = d.uvarint()
	default:
		return nil, Errf(CodeUnknownOp, "opcode %s is not a response", op)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}
