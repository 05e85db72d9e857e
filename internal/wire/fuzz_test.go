package wire

import (
	"bytes"
	"errors"
	"io"
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
	})
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
