package wire

import (
	"bufio"
	"io"

	"gomdb/internal/object"
)

// Per-connection codec bounds. A codec keeps at most its read buffer, a
// write buffer of maxRetainedWrite bytes, an argument array of
// maxRetainedArgs values and maxNames interned names of at most maxNameLen
// bytes each, however large the frames it has carried.
const (
	// readBufferSize is a codec's read buffer: frames up to this size,
	// header and trailer included, are read without an allocation.
	readBufferSize = 4096
	// maxRetainedWrite caps the write buffer kept between frames: a larger
	// frame (a big stream chunk) is encoded into a buffer that is dropped
	// once written.
	maxRetainedWrite = 64 << 10
	maxRetainedArgs  = 64
	maxNames         = 128
	maxNameLen       = 64
)

// Codec is one connection's frame codec: the client and the server session
// each read, write and decode every frame of their connection through one.
// Steady-state round trips allocate nothing in it. A Codec is not safe for
// concurrent use; its owner serializes reads and writes.
//
// What it lends is valid only until the codec's next use of the same kind:
// a Frame's payload aliases the read buffer until the next ReadFrame, and a
// decoded Request's Args and Sub point into the codec until the next
// DecodeRequest.
type Codec struct {
	br  *bufio.Reader
	w   io.Writer
	out []byte // frames put since the last Flush
	reuse
}

// NewCodec returns the codec of the connection rw.
func NewCodec(rw io.ReadWriter) *Codec { return newCodec(rw, readBufferSize) }

// newCodec returns a codec with a size-byte read buffer (at least a frame
// header and trailer).
func newCodec(rw io.ReadWriter, size int) *Codec {
	return &Codec{br: bufio.NewReaderSize(rw, max(size, headerSize+trailerSize)), w: rw}
}

// ReadFrame reads the next frame. Its payload aliases the codec's read
// buffer and is valid until the next ReadFrame; a frame larger than that
// buffer is read into a buffer of its own. The errors are ReadFrame's: a
// clean EOF between frames is io.EOF, anything else a structured *Error.
// The MaxPayload bound is checked before anything is allocated or waited
// for, and the CRC before the payload is handed out.
func (c *Codec) ReadFrame() (Frame, error) {
	h, err := c.br.Peek(headerSize)
	if err != nil {
		return Frame{}, shortHeader(len(h), err)
	}
	op, reqID, n, err := parseHeader(h)
	if err != nil {
		return Frame{}, err
	}
	total := headerSize + n + trailerSize
	if total > c.br.Size() {
		c.br.Discard(headerSize)
		payload, err := readBody(c.br, n)
		if err != nil {
			return Frame{}, err
		}
		return Frame{Op: op, ReqID: reqID, Payload: payload}, nil
	}
	b, err := c.br.Peek(total)
	if err != nil {
		return Frame{}, Wrap(CodeMalformed, "short payload", unexpected(err))
	}
	if err := checkCRC(b[headerSize:]); err != nil {
		return Frame{}, err
	}
	c.br.Discard(total)
	return Frame{Op: op, ReqID: reqID, Payload: b[headerSize : headerSize+n]}, nil
}

// DecodeRequest decodes f's payload into r as the package's DecodeRequest
// does, overwriting every field of r. Name and Attr are interned in the
// codec's bounded name table; Args and Sub are the codec's storage, valid
// until its next DecodeRequest.
func (c *Codec) DecodeRequest(f Frame, r *Request) error {
	return decodeRequestInto(r, f.Op, f.Payload, &c.reuse)
}

// DecodeResponse decodes f's payload into r as the package's
// DecodeResponse does, overwriting every field of r.
func (c *Codec) DecodeResponse(f Frame, r *Response) error {
	return decodeResponseInto(r, f.Op, f.Payload)
}

// PutRequest encodes r as the frame (r.Op, reqID) at the end of the
// codec's pending output; Flush writes it. A request that does not encode
// leaves the output as it was.
func (c *Codec) PutRequest(reqID uint64, r *Request) error {
	e := c.begin()
	if err := encodeRequest(&e, r); err != nil {
		return err
	}
	c.seal(e, r.Op, reqID)
	return nil
}

// PutResponse encodes r as the frame (r.Op, reqID) at the end of the
// codec's pending output; Flush writes it. A response that does not encode
// leaves the output as it was.
func (c *Codec) PutResponse(reqID uint64, r *Response) error {
	e := c.begin()
	if err := encodeResponse(&e, r); err != nil {
		return err
	}
	c.seal(e, r.Op, reqID)
	return nil
}

// begin returns an encoder over the pending output with room for one more
// frame header; the frame joins the output only when seal takes it back.
// (Put* spell out begin, encode and seal: a shared helper taking the
// encode step as a func value would move each request to the heap.)
func (c *Codec) begin() object.Encoder {
	return object.Encoder{Buf: append(c.out, blankHeader[:]...)}
}

// seal fills in the header and CRC of the frame begin opened and makes it
// part of the pending output.
func (c *Codec) seal(e object.Encoder, op Opcode, reqID uint64) {
	c.out = sealFrame(e.Buf, len(c.out), op, reqID)
}

// Flush writes the pending output in one Write and empties it. The bytes
// of each frame are exactly EncodeFrame's.
func (c *Codec) Flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.w.Write(c.out)
	if cap(c.out) > maxRetainedWrite {
		c.out = nil
	} else {
		c.out = c.out[:0]
	}
	return err
}

// reuse is the storage a decode into a caller's Request draws on: the
// interned names, one argument array and the sub-request of OpBatchOp. A
// request and its sub-request never both carry arguments, so one array
// serves both. A nil *reuse decodes everything fresh.
type reuse struct {
	names map[string]string
	args  []object.Value
	sub   Request
}

// name decodes a string, interned while the table has room: a name already
// in the table costs a map probe and no allocation.
func (u *reuse) name(d *object.Decoder) string {
	b := d.RawStr()
	if u == nil || len(b) > maxNameLen {
		return string(b)
	}
	if s, ok := u.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(u.names) < maxNames {
		if u.names == nil {
			u.names = make(map[string]string, maxNames)
		}
		u.names[s] = s
	}
	return s
}

// values decodes a run of values into the reused argument array.
func (u *reuse) values(d *object.Decoder) []object.Value {
	if u == nil {
		return d.Values()
	}
	vs := d.ValuesInto(u.args[:0])
	if cap(vs) > cap(u.args) && cap(vs) <= maxRetainedArgs {
		u.args = vs
	}
	return vs
}

// request returns the storage of OpBatchOp's sub-request.
func (u *reuse) request() *Request {
	if u == nil {
		return new(Request)
	}
	return &u.sub
}
