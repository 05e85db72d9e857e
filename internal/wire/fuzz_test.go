package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"time"
)

// The protocol's hostile-input contract, held by fuzzing: the decoders
// never panic, never hang, never allocate unboundedly, and classify every
// malformed input with a structured *Error. Seed corpora live under
// testdata/fuzz/; run the full campaign with `make fuzz-wire`.

// FuzzDecodeFrame throws raw bytes at the frame decoder (slice and stream
// forms) and checks the decode → encode → decode fixed point on success.
func FuzzDecodeFrame(f *testing.F) {
	for _, fx := range fixtureFrames() {
		f.Add(EncodeFrame(fx))
	}
	valid := EncodeFrame(&Frame{Op: OpPing, ReqID: 7})
	f.Add(valid[:10])                       // truncated header
	f.Add(append([]byte("XOMW"), valid...)) // bad magic
	bad := append([]byte(nil), valid...)
	bad[4] = 99 // version skew
	f.Add(bad)
	crc := append([]byte(nil), valid...)
	crc[len(crc)-1] ^= 0xFF // corrupt CRC
	f.Add(crc)
	huge := append([]byte(nil), valid[:headerSize]...)
	huge[14], huge[15], huge[16], huge[17] = 0xFF, 0xFF, 0xFF, 0xFF // hostile length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			var we *Error
			if !errors.As(err, &we) {
				t.Fatalf("DecodeFrame error is not structured: %v", err)
			}
			if fr != nil {
				t.Fatal("frame returned alongside error")
			}
		} else {
			if n <= 0 || n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			// Fixed point: re-encoding the decoded frame must reproduce the
			// consumed prefix exactly.
			if enc := EncodeFrame(fr); !bytes.Equal(enc, data[:n]) {
				t.Fatalf("re-encode drifted:\n got % x\nwant % x", enc, data[:n])
			}
		}
		// The stream decoder must agree with the slice decoder.
		sf, serr := ReadFrame(bytes.NewReader(data))
		if (err == nil) != (serr == nil) {
			t.Fatalf("DecodeFrame err=%v but ReadFrame err=%v", err, serr)
		}
		if err == nil && (sf.Op != fr.Op || sf.ReqID != fr.ReqID || !bytes.Equal(sf.Payload, fr.Payload)) {
			t.Fatal("stream and slice decoders disagree")
		}
		if serr != nil && serr != io.EOF {
			var we *Error
			if !errors.As(serr, &we) {
				t.Fatalf("ReadFrame error is not structured: %v", serr)
			}
		}
		// A connection's codec reading the input twice in a row must read
		// what successive DecodeFrame calls read, both with the default
		// buffer and with one small enough that most frames outgrow it.
		twice := append(append([]byte(nil), data...), data...)
		for _, size := range []int{readBufferSize, 64} {
			codecMatchesDecodeFrame(t, twice, newCodec(readOnly{bytes.NewReader(twice)}, size))
		}
	})
}

// readOnly is a connection that is only read from.
type readOnly struct{ io.Reader }

func (readOnly) Write(p []byte) (int, error) { return len(p), nil }

// codecMatchesDecodeFrame reads stream through c frame by frame and checks
// each frame, and the first error, against DecodeFrame on what is left.
func codecMatchesDecodeFrame(t *testing.T, stream []byte, c *Codec) {
	t.Helper()
	for rest := stream; ; {
		got, gerr := c.ReadFrame()
		if len(rest) == 0 {
			if gerr != io.EOF {
				t.Fatalf("codec at the end of the stream: %v, want io.EOF", gerr)
			}
			return
		}
		want, n, werr := DecodeFrame(rest)
		if werr != nil {
			if CodeOf(gerr) != CodeOf(werr) {
				t.Fatalf("codec error %v, DecodeFrame error %v", gerr, werr)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("codec error %v where DecodeFrame reads a frame", gerr)
		}
		if got.Op != want.Op || got.ReqID != want.ReqID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatal("codec and DecodeFrame disagree")
		}
		rest = rest[n:]
	}
}

// FuzzDecodeRequest throws (opcode, payload) pairs at the payload decoders
// — request and response interpretation both — and checks the decode →
// encode → decode fixed point on success.
func FuzzDecodeRequest(f *testing.F) {
	for _, fx := range fixtureFrames() {
		f.Add(byte(fx.Op), fx.Payload)
	}
	// Hostile 64-bit varint lengths (the class that crashed the object
	// value decoder before its bounds hardening).
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	f.Add(byte(OpCall), append([]byte{1, 'f'}, huge...))
	f.Add(byte(OpQuery), append([]byte{0}, huge...))
	f.Add(byte(RespChunk), append([]byte{byte(StreamOIDs)}, huge...))
	f.Add(byte(OpBatchOp), []byte{byte(OpBatchOp)}) // nesting attempt

	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if req, err := DecodeRequest(Opcode(op), payload); err == nil {
				enc, eerr := EncodeRequest(req)
				if eerr != nil {
					t.Errorf("decoded request does not re-encode: %v", eerr)
					return
				}
				// Canonical fixed point: the re-encoding must decode to the
				// same re-encoding (map key order may legitimately differ
				// from the fuzzer's payload, so compare one step removed).
				req2, derr := DecodeRequest(Opcode(op), enc)
				if derr != nil {
					t.Errorf("canonical encoding does not decode: %v", derr)
					return
				}
				enc2, _ := EncodeRequest(req2)
				if !bytes.Equal(enc, enc2) {
					t.Errorf("canonical encoding not a fixed point:\n got % x\nwant % x", enc2, enc)
				}
			} else {
				var we *Error
				if !errors.As(err, &we) {
					t.Errorf("DecodeRequest error is not structured: %v", err)
				}
			}
			decodeIntoMatchesFresh(t, Opcode(op), payload)
			if resp, err := DecodeResponse(Opcode(op), payload); err == nil {
				enc, eerr := EncodeResponse(resp)
				if eerr != nil {
					t.Errorf("decoded response does not re-encode: %v", eerr)
					return
				}
				// Same fixed point, one step removed: a non-canonical byte
				// (a bool other than 0 or 1) re-encodes canonically.
				resp2, derr := DecodeResponse(Opcode(op), enc)
				if derr != nil {
					t.Errorf("canonical response encoding does not decode: %v", derr)
					return
				}
				enc2, _ := EncodeResponse(resp2)
				if !bytes.Equal(enc, enc2) {
					t.Errorf("canonical response encoding not a fixed point:\n got % x\nwant % x", enc2, enc)
				}
			} else {
				var we *Error
				if !errors.As(err, &we) {
					t.Errorf("DecodeResponse error is not structured: %v", err)
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("payload decoder hung")
		}
	})
}

// dirtying are the requests and responses a codec decodes before the fuzzed
// payload: between them they leave every field a decode into reused storage
// could keep stale set — Args, Sub and its Args, HasOIDs and OIDs, Params,
// Specs, stream rows, the error fields.
func dirtying() []*Frame {
	var frames []*Frame
	for _, fx := range fixtureFrames() {
		switch fx.Op {
		case OpCall, OpNew, OpSum, OpQuery, OpRetrieve, OpMaterialize, OpBatchOp, OpBatchCommit,
			RespError, RespChunk, RespStreamBegin, RespHello:
			frames = append(frames, fx)
		}
	}
	return frames
}

// decodeIntoMatchesFresh decodes payload into a request and a response left
// dirty by a previous decode through one codec's storage, and checks each
// against a fresh decode: equal values, or the same error text.
func decodeIntoMatchesFresh(t *testing.T, op Opcode, payload []byte) {
	fresh, ferr := DecodeRequest(op, payload)
	freshResp, frerr := DecodeResponse(op, payload)
	c := NewCodec(readOnly{bytes.NewReader(nil)})
	var req Request
	var resp Response
	for _, prev := range dirtying() {
		var err error
		if prev.Op < RespHello {
			err = c.DecodeRequest(*prev, &req)
		} else {
			err = c.DecodeResponse(*prev, &resp)
		}
		if err != nil {
			// Not Fatal: this runs on the fuzz body's watchdog goroutine.
			t.Errorf("fixture %s does not decode: %v", prev.Op, err)
			return
		}
		f := Frame{Op: op, Payload: payload}
		err = c.DecodeRequest(f, &req)
		if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
			t.Errorf("after %s: decode into reused storage fails with %v, fresh with %v", prev.Op, err, ferr)
		} else if err == nil && !sameBits(reflect.ValueOf(req), reflect.ValueOf(*fresh)) {
			t.Errorf("after %s: decode into reused storage\n got %+v\nwant %+v", prev.Op, req, *fresh)
		}
		err = c.DecodeResponse(f, &resp)
		if (err == nil) != (frerr == nil) || err != nil && err.Error() != frerr.Error() {
			t.Errorf("after %s: response decode into reused storage fails with %v, fresh with %v", prev.Op, err, frerr)
		} else if err == nil && !sameBits(reflect.ValueOf(resp), reflect.ValueOf(*freshResp)) {
			t.Errorf("after %s: response decode into reused storage\n got %+v\nwant %+v", prev.Op, resp, *freshResp)
		}
	}
}

// sameBits is reflect.DeepEqual with floats compared bit for bit, so that a
// NaN the fuzzer decodes equals the same NaN decoded again.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !sameBits(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}
