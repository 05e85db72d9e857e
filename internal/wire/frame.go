package wire

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

const (
	// Magic opens every frame: "GOMW" big endian.
	Magic uint32 = 0x474F4D57
	// Version is the protocol version this package speaks. A frame with a
	// different version is rejected with CodeVersion — there is no
	// negotiation below the Hello handshake.
	Version uint8 = 1
	// MaxPayload bounds a frame payload (16 MiB). The bound is enforced
	// before any payload allocation, so a hostile length prefix cannot make
	// the decoder allocate or hang.
	MaxPayload = 16 << 20

	headerSize  = 18
	trailerSize = 4
)

// castagnoli is the CRC32-C table used for every payload checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Opcode identifies a frame's request or response kind. Opcode values are
// part of the protocol; never reorder, only append.
type Opcode uint8

// Request opcodes (client → server).
const (
	// OpHello opens a session: protocol version + auth token.
	OpHello Opcode = 0x01
	// OpPing is a no-op liveness probe.
	OpPing Opcode = 0x02
	// OpGoodbye announces an orderly client close.
	OpGoodbye Opcode = 0x03
	// OpQuery runs a GOMql statement with named parameters.
	OpQuery Opcode = 0x04
	// OpCall invokes a function or operation (forward query when
	// materialized).
	OpCall Opcode = 0x05
	// OpGetAttr reads one attribute.
	OpGetAttr Opcode = 0x06
	// OpSet performs the elementary update oid.set_attr(v).
	OpSet Opcode = 0x07
	// OpNew creates a tuple-structured instance.
	OpNew Opcode = 0x08
	// OpNewSet creates a set- or list-structured instance.
	OpNewSet Opcode = 0x09
	// OpDelete removes an object.
	OpDelete Opcode = 0x0A
	// OpInsert performs set.insert(elem).
	OpInsert Opcode = 0x0B
	// OpRemove performs set.remove(elem).
	OpRemove Opcode = 0x0C
	// OpRetrieve answers a tabular GMR query (streamed response).
	OpRetrieve Opcode = 0x0D
	// OpBackward answers a backward range query (streamed response).
	OpBackward Opcode = 0x0E
	// OpSum aggregates a materialized function.
	OpSum Opcode = 0x0F
	// OpExtension returns a type extension (streamed response).
	OpExtension Opcode = 0x10
	// OpMaterialize creates a GMR.
	OpMaterialize Opcode = 0x11
	// OpDematerialize drops a GMR.
	OpDematerialize Opcode = 0x12
	// OpFlush drains the deferred-rematerialization queue.
	OpFlush Opcode = 0x13
	// OpBatchBegin opens an interactive update batch (exclusive engine
	// lock held server-side until OpBatchCommit or disconnect).
	OpBatchBegin Opcode = 0x14
	// OpBatchOp routes one sub-operation through the open batch.
	OpBatchOp Opcode = 0x15
	// OpBatchCommit closes the open batch (flush point); the abort flag
	// marks the batch failed without undoing applied updates, matching the
	// embedded Batch contract.
	OpBatchCommit Opcode = 0x16
	// OpSimSeconds reads the simulated-work clock.
	OpSimSeconds Opcode = 0x17
)

// Response opcodes (server → client).
const (
	// RespHello acknowledges the handshake.
	RespHello Opcode = 0x41
	// RespAck acknowledges a request with no result payload.
	RespAck Opcode = 0x42
	// RespValue carries one Value result.
	RespValue Opcode = 0x43
	// RespOID carries one OID result.
	RespOID Opcode = 0x44
	// RespFloat carries one float64 result.
	RespFloat Opcode = 0x45
	// RespError carries a structured error (code + message).
	RespError Opcode = 0x46
	// RespStreamBegin opens a chunked result stream.
	RespStreamBegin Opcode = 0x47
	// RespChunk carries one bounded slice of a result stream.
	RespChunk Opcode = 0x48
	// RespDone closes a result stream with the total row count.
	RespDone Opcode = 0x49
)

var opcodeNames = map[Opcode]string{
	OpHello: "Hello", OpPing: "Ping", OpGoodbye: "Goodbye",
	OpQuery: "Query", OpCall: "Call", OpGetAttr: "GetAttr", OpSet: "Set",
	OpNew: "New", OpNewSet: "NewSet", OpDelete: "Delete",
	OpInsert: "Insert", OpRemove: "Remove",
	OpRetrieve: "Retrieve", OpBackward: "Backward", OpSum: "Sum",
	OpExtension: "Extension", OpMaterialize: "Materialize",
	OpDematerialize: "Dematerialize", OpFlush: "Flush",
	OpBatchBegin: "BatchBegin", OpBatchOp: "BatchOp", OpBatchCommit: "BatchCommit",
	OpSimSeconds: "SimSeconds",
	RespHello:    "RespHello", RespAck: "RespAck", RespValue: "RespValue",
	RespOID: "RespOID", RespFloat: "RespFloat", RespError: "RespError",
	RespStreamBegin: "RespStreamBegin", RespChunk: "RespChunk", RespDone: "RespDone",
}

func (op Opcode) String() string {
	if s, ok := opcodeNames[op]; ok {
		return s
	}
	return "Opcode(" + itoa(uint64(op)) + ")"
}

// Known reports whether op is part of the protocol.
func (op Opcode) Known() bool { _, ok := opcodeNames[op]; return ok }

// itoa avoids strconv in the hot path error strings.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Frame is one protocol frame. Payload is the opcode-specific body; see
// payload.go for its encoding.
type Frame struct {
	Op      Opcode
	ReqID   uint64
	Payload []byte
}

// AppendFrame appends the encoded form of f to dst and returns the extended
// slice.
func AppendFrame(dst []byte, f *Frame) []byte {
	start := len(dst)
	dst = append(dst, blankHeader[:]...)
	return sealFrame(append(dst, f.Payload...), start, f.Op, f.ReqID)
}

// blankHeader is the room a frame's header takes before sealFrame fills it.
var blankHeader [headerSize]byte

// sealFrame completes the frame that starts at b[start]: the header room
// there is filled in for a payload that runs to the end of b, and the
// payload's checksum is appended. Every frame this package writes is
// finished here.
func sealFrame(b []byte, start int, op Opcode, reqID uint64) []byte {
	h := b[start : start+headerSize]
	binary.BigEndian.PutUint32(h, Magic)
	h[4], h[5] = Version, byte(op)
	binary.BigEndian.PutUint64(h[6:], reqID)
	binary.BigEndian.PutUint32(h[14:], uint32(len(b)-start-headerSize))
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start+headerSize:], castagnoli))
}

// EncodeFrame returns the encoded form of f.
func EncodeFrame(f *Frame) []byte {
	return AppendFrame(make([]byte, 0, headerSize+len(f.Payload)+trailerSize), f)
}

// parseHeader checks a frame header and returns its opcode, request id and
// payload length. The length is checked against MaxPayload here, before any
// reader allocates or waits for the payload.
func parseHeader(h []byte) (Opcode, uint64, int, error) {
	if m := binary.BigEndian.Uint32(h); m != Magic {
		return 0, 0, 0, Errf(CodeBadMagic, "bad magic 0x%08x", m)
	}
	if v := h[4]; v != Version {
		return 0, 0, 0, Errf(CodeVersion, "protocol version %d, want %d", v, Version)
	}
	op := Opcode(h[5])
	if !op.Known() {
		return 0, 0, 0, Errf(CodeUnknownOp, "unknown opcode 0x%02x", byte(op))
	}
	n := binary.BigEndian.Uint32(h[14:])
	if n > MaxPayload {
		return 0, 0, 0, Errf(CodeTooLarge, "payload length %d exceeds %d", n, MaxPayload)
	}
	return op, binary.BigEndian.Uint64(h[6:]), int(n), nil
}

// checkCRC checks a payload followed by its CRC trailer.
func checkCRC(body []byte) error {
	n := len(body) - trailerSize
	want := binary.BigEndian.Uint32(body[n:])
	if got := crc32.Checksum(body[:n], castagnoli); got != want {
		return Errf(CodeCRC, "payload checksum 0x%08x, frame says 0x%08x", got, want)
	}
	return nil
}

// DecodeFrame decodes one frame from the front of buf, returning the frame
// and the number of bytes consumed. It never panics and never allocates
// more than the (bounds-checked) payload length. Errors carry protocol
// codes: CodeMalformed (truncated), CodeBadMagic, CodeVersion,
// CodeTooLarge, CodeCRC, CodeUnknownOp.
func DecodeFrame(buf []byte) (*Frame, int, error) {
	if len(buf) < headerSize {
		return nil, 0, Errf(CodeMalformed, "truncated header: %d of %d bytes", len(buf), headerSize)
	}
	op, reqID, n, err := parseHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	total := headerSize + n + trailerSize
	if len(buf) < total {
		return nil, 0, Errf(CodeMalformed, "truncated frame: %d of %d bytes", len(buf), total)
	}
	if err := checkCRC(buf[headerSize:total]); err != nil {
		return nil, 0, err
	}
	// Copy the payload out so the frame does not alias the caller's buffer.
	p := make([]byte, n)
	copy(p, buf[headerSize:])
	return &Frame{Op: op, ReqID: reqID, Payload: p}, total, nil
}

// WriteFrame writes f to w in one Write call (one syscall on a socket, and
// atomic with respect to other writers serialized by the caller).
func WriteFrame(w io.Writer, f *Frame) error {
	_, err := w.Write(EncodeFrame(f))
	return err
}

// ReadFrame reads exactly one frame from r. A clean EOF before any header
// byte is returned as io.EOF (the peer closed between frames); any other
// truncation or violation is a structured *Error. The payload allocation is
// bounded by MaxPayload, checked before allocating. A connection that reads
// frame after frame uses a Codec instead, which allocates nothing per frame.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [headerSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		return nil, shortHeader(n, err)
	}
	op, reqID, size, err := parseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	payload, err := readBody(r, size)
	if err != nil {
		return nil, err
	}
	return &Frame{Op: op, ReqID: reqID, Payload: payload}, nil
}

// readBody reads an n-byte payload and its CRC trailer from r into a fresh
// buffer and checks the CRC.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, n+trailerSize)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, Wrap(CodeMalformed, "short payload", err)
	}
	if err := checkCRC(body); err != nil {
		return nil, err
	}
	return body[:n], nil
}

// shortHeader classifies a header read that returned err after n bytes: a
// clean EOF at the frame boundary is io.EOF, anything else is malformed.
func shortHeader(n int, err error) error {
	if n == 0 && err == io.EOF {
		return io.EOF
	}
	return Wrap(CodeMalformed, "short header", unexpected(err))
}

// unexpected maps an EOF inside a frame to io.ErrUnexpectedEOF, as
// io.ReadFull reports it.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
