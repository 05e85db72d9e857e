package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gomdb/internal/core"
	"gomdb/internal/object"
)

// fixtureFrames is the golden frame set: one frame per interesting payload
// shape. The encodings are pinned byte-for-byte under testdata/golden/ —
// regenerate with GOLDEN_UPDATE=1 after a deliberate protocol change (which
// must also bump Version).
func fixtureFrames() []*Frame {
	f64p := func(v float64) *float64 { return &v }
	valp := func(v object.Value) *object.Value { return &v }
	reqs := []*Request{
		{Op: OpHello, WireVersion: Version, Token: "s3cret"},
		{Op: OpPing},
		{Op: OpQuery, Name: "range c: Cuboid retrieve c where c.volume > $v",
			Params: map[string]object.Value{"v": object.Float(20.0), "w": object.Int(3)}},
		{Op: OpCall, Name: "Cuboid.volume", Args: []object.Value{object.Ref(42)}},
		{Op: OpGetAttr, OID: 7, Attr: "X"},
		{Op: OpSet, OID: 7, Attr: "X", Val: object.Float(1.5)},
		{Op: OpNew, Name: "Vertex", Args: []object.Value{object.Float(0), object.Float(1), object.Float(2)}},
		{Op: OpNewSet, Name: "Workpieces", Args: []object.Value{object.Ref(3), object.Ref(4)}},
		{Op: OpDelete, OID: 99},
		{Op: OpInsert, OID: 5, Val: object.Ref(6)},
		{Op: OpRemove, OID: 5, Val: object.Ref(6)},
		{Op: OpRetrieve, Name: "<<volume,weight>>", Specs: []core.FieldSpec{
			{Exact: valp(object.Ref(11))}, {Lo: f64p(1), Hi: f64p(9)}, {}}},
		{Op: OpBackward, Name: "Cuboid.volume", Lo: 20, Hi: 40},
		{Op: OpSum, Name: "Cuboid.weight", HasOIDs: true, OIDs: []object.OID{2, 3, 5}},
		{Op: OpSum, Name: "Cuboid.weight"},
		{Op: OpExtension, Name: "Cuboid"},
		{Op: OpMaterialize, Mat: MatOptions{Name: "vol", Funcs: []string{"Cuboid.volume"},
			Strategy: uint8(core.Deferred), Mode: uint8(core.ModeInfoHiding),
			Complete: true, UseMDS: true, MaxEntries: 128}},
		{Op: OpDematerialize, Name: "vol"},
		{Op: OpFlush},
		{Op: OpBatchBegin},
		{Op: OpBatchOp, Sub: &Request{Op: OpSet, OID: 8, Attr: "Y", Val: object.Float(2.5)}},
		{Op: OpBatchCommit, Abort: true},
		{Op: OpSimSeconds},
		{Op: OpGoodbye},
	}
	resps := []*Response{
		{Op: RespHello, WireVersion: Version, Shards: 4},
		{Op: RespAck},
		{Op: RespValue, Val: object.TupleVal("Vertex", object.Float(1), object.Float(2), object.Float(3))},
		{Op: RespOID, OID: 123},
		{Op: RespFloat, F: 524.25},
		{Op: RespError, ErrCode: CodeEngine, ErrMsg: "core: not materialized"},
		{Op: RespStreamBegin, Stream: StreamQuery, Columns: []string{"c", "c.volume"}},
		{Op: RespChunk, Stream: StreamQuery, Rows: [][]object.Value{
			{object.Ref(1), object.Float(24)}, {object.Ref(2), object.Float(36)}}},
		{Op: RespChunk, Stream: StreamRows, GRows: []core.Row{
			{Args: []object.Value{object.Ref(1)}, Results: []object.Value{object.Float(24)}, Valid: []bool{true, false}}}},
		{Op: RespChunk, Stream: StreamMatches, Matches: []core.Match{
			{Args: []object.Value{object.Ref(1)}, Result: object.Float(24)}}},
		{Op: RespChunk, Stream: StreamOIDs, OIDs: []object.OID{1, 2, 3}},
		{Op: RespDone, Total: 3},
	}
	var frames []*Frame
	for i, r := range reqs {
		p, err := EncodeRequest(r)
		if err != nil {
			panic(err)
		}
		frames = append(frames, &Frame{Op: r.Op, ReqID: uint64(i + 1), Payload: p})
	}
	for i, r := range resps {
		p, err := EncodeResponse(r)
		if err != nil {
			panic(err)
		}
		frames = append(frames, &Frame{Op: r.Op, ReqID: uint64(100 + i), Payload: p})
	}
	return frames
}

const goldenPath = "testdata/golden/frames.hex"

// TestGoldenFrames pins the byte-level encoding of every fixture frame.
// The golden file is one hex line per frame; GOLDEN_UPDATE=1 regenerates it.
func TestGoldenFrames(t *testing.T) {
	frames := fixtureFrames()
	var lines []string
	for _, f := range frames {
		lines = append(lines, hex.EncodeToString(EncodeFrame(f)))
	}
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d frames)", goldenPath, len(frames))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	if len(wantLines) != len(frames) {
		t.Fatalf("golden has %d frames, fixtures have %d — protocol changed without Version bump?", len(wantLines), len(frames))
	}
	for i, f := range frames {
		if lines[i] != wantLines[i] {
			t.Errorf("frame %d (%s) encoding drifted:\n got %s\nwant %s", i, f.Op, lines[i], wantLines[i])
		}
	}
	// And the reverse direction: every golden line must decode back to the
	// fixture frame exactly.
	for i, line := range wantLines {
		raw, err := hex.DecodeString(line)
		if err != nil {
			t.Fatalf("golden line %d: %v", i, err)
		}
		f, n, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("golden frame %d does not decode: %v", i, err)
		}
		if n != len(raw) {
			t.Fatalf("golden frame %d: consumed %d of %d bytes", i, n, len(raw))
		}
		if f.Op != frames[i].Op || f.ReqID != frames[i].ReqID || !bytes.Equal(f.Payload, frames[i].Payload) {
			t.Errorf("golden frame %d decoded to %+v, want %+v", i, f, frames[i])
		}
	}
}

// TestRequestRoundTrip: encode → decode is the identity for every request
// fixture (the union fields that matter for the opcode survive).
func TestRequestRoundTrip(t *testing.T) {
	for _, f := range fixtureFrames() {
		if f.Op >= RespHello {
			continue
		}
		r, err := DecodeRequest(f.Op, f.Payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Op, err)
		}
		p2, err := EncodeRequest(r)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", f.Op, err)
		}
		if !bytes.Equal(f.Payload, p2) {
			t.Errorf("%s: round trip drifted:\n got % x\nwant % x", f.Op, p2, f.Payload)
		}
	}
}

// TestResponseRoundTrip: same property for responses, plus struct equality.
func TestResponseRoundTrip(t *testing.T) {
	for _, f := range fixtureFrames() {
		if f.Op < RespHello {
			continue
		}
		r, err := DecodeResponse(f.Op, f.Payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Op, err)
		}
		p2, err := EncodeResponse(r)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", f.Op, err)
		}
		if !bytes.Equal(f.Payload, p2) {
			t.Errorf("%s: round trip drifted:\n got % x\nwant % x", f.Op, p2, f.Payload)
		}
	}
}

// TestFrameViolations: every malformed-frame class is rejected with its
// designated code, via both the slice and the stream decoder.
func TestFrameViolations(t *testing.T) {
	valid := EncodeFrame(&Frame{Op: OpPing, ReqID: 9})
	mut := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return mutate(b)
	}
	cases := []struct {
		name string
		buf  []byte
		code Code
	}{
		{"empty", nil, CodeMalformed},
		{"truncated header", valid[:10], CodeMalformed},
		{"truncated payload", EncodeFrame(&Frame{Op: OpHello, ReqID: 1, Payload: []byte("xxxxxxxx")})[:20], CodeMalformed},
		{"bad magic", mut(func(b []byte) []byte { b[0] = 'X'; return b }), CodeBadMagic},
		{"version skew", mut(func(b []byte) []byte { b[4] = Version + 1; return b }), CodeVersion},
		{"unknown opcode", mut(func(b []byte) []byte { b[5] = 0x3F; return b }), CodeUnknownOp},
		{"oversized length", mut(func(b []byte) []byte {
			b[14], b[15], b[16], b[17] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}), CodeTooLarge},
		{"corrupt crc", mut(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }), CodeCRC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeFrame(tc.buf)
			if CodeOf(err) != tc.code {
				t.Errorf("DecodeFrame: code %v, want %v (err: %v)", CodeOf(err), tc.code, err)
			}
			_, rerr := ReadFrame(bytes.NewReader(tc.buf))
			if len(tc.buf) == 0 {
				if rerr != io.EOF {
					t.Errorf("ReadFrame(empty) = %v, want io.EOF", rerr)
				}
			} else if CodeOf(rerr) != tc.code {
				t.Errorf("ReadFrame: code %v, want %v (err: %v)", CodeOf(rerr), tc.code, rerr)
			}
		})
	}
}

// TestErrorStructure: wire errors match by code under errors.Is, unwrap
// their cause, and CodeOf classifies foreign errors as engine errors.
func TestErrorStructure(t *testing.T) {
	cause := fmt.Errorf("boom")
	err := Wrap(CodeCRC, "checksum", cause)
	if !errors.Is(err, &Error{Code: CodeCRC}) {
		t.Error("errors.Is by code failed")
	}
	if errors.Is(err, &Error{Code: CodeAuth}) {
		t.Error("errors.Is matched a different code")
	}
	if !errors.Is(err, cause) {
		t.Error("unwrap chain lost the cause")
	}
	if CodeOf(fmt.Errorf("engine said no")) != CodeEngine {
		t.Error("foreign errors must classify as CodeEngine")
	}
	if CodeOf(nil) != CodeOK {
		t.Error("nil must classify as CodeOK")
	}
	resp := ErrResponse(err)
	if resp.ErrCode != CodeCRC {
		t.Errorf("ErrResponse code = %v", resp.ErrCode)
	}
	back := resp.Err()
	if CodeOf(back) != CodeCRC {
		t.Errorf("Err() round trip code = %v", CodeOf(back))
	}
	// The code prefix is printed once, cause included, on both sides.
	if back.Error() != err.Error() {
		t.Errorf("Err() round trip text %q, want %q", back.Error(), err.Error())
	}
	bare := Errf(CodeBadRequest, "bad strategy %d", 9)
	if got := ErrResponse(bare).Err().Error(); got != bare.Error() {
		t.Errorf("Err() round trip text %q, want %q", got, bare.Error())
	}
	// A foreign error travels as its full text, even when it wraps a
	// protocol error.
	wrapped := fmt.Errorf("shard 1: %w", bare)
	if got := ErrResponse(wrapped).ErrMsg; got != wrapped.Error() {
		t.Errorf("wrapped error sent %q, want %q", got, wrapped.Error())
	}
}

// TestMatOptionsConversions: the one pair of conversions between engine
// options and their wire form round-trips every serializable field and
// refuses what the wire cannot carry or the engine does not know.
func TestMatOptionsConversions(t *testing.T) {
	for _, s := range []core.Strategy{core.Immediate, core.Lazy, core.Deferred} {
		o := core.Options{Name: "g", Funcs: []string{"Cuboid.volume"}, Strategy: s, Mode: core.ModeInfoHiding,
			Complete: true, SecondChance: true, UseMDS: true, MaxEntries: 64}
		m, err := MatOptionsOf(o)
		if err != nil {
			t.Fatalf("strategy %d: %v", s, err)
		}
		back, err := m.Options()
		if err != nil || !reflect.DeepEqual(back, o) {
			t.Fatalf("strategy %d: round trip %+v, %v; want %+v", s, back, err, o)
		}
	}
	refused := []core.Options{
		{Restriction: &core.Restriction{}},
		{AtomicArgs: map[int]core.ArgRestriction{0: {}}},
		{MaxEntries: -1},
		{MaxEntries: math.MaxUint32 + 1},
	}
	for i, o := range refused {
		if _, err := MatOptionsOf(o); CodeOf(err) != CodeBadRequest {
			t.Errorf("refused[%d]: %v, want bad_request", i, err)
		}
	}
	for _, m := range []MatOptions{{Strategy: uint8(core.Deferred) + 1}, {Mode: uint8(core.ModeInfoHiding) + 1}} {
		if _, err := m.Options(); CodeOf(err) != CodeBadRequest {
			t.Errorf("%+v: %v, want bad_request", m, err)
		}
	}
}

// TestStreamChunkBounds: hostile counts and lengths fail as CodeMalformed
// instead of allocating or panicking; regression guard for the shared
// decoder's bounds rules. The value cases are internal/object's
// TestDecodeValueHostileLengths inputs, carried in a RespValue payload and
// as the argument of an OpCall.
func TestStreamChunkBounds(t *testing.T) {
	// huge is a uvarint of 2^63+: it wraps negative under int conversion.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	type input struct {
		op      Opcode
		payload []byte
	}
	cases := map[string]input{
		"hostile chunk count": {RespChunk, []byte{byte(StreamOIDs), 0xFF, 0xFF, 0x7F}}, // count 2^21-ish, 0 rows
		// An overlong varint (more than 64 bits of payload) is malformed; a
		// merely huge OID is well-formed wire-wise and rejected by the engine.
		"overlong OID varint": {OpDelete, bytes.Repeat([]byte{0xFF}, 11)},
	}
	values := map[string][]byte{
		"string length wraps negative":    cat([]byte{byte(object.KString)}, huge),
		"tuple arity wraps negative":      cat([]byte{byte(object.KTuple), 0}, huge),
		"set arity wraps negative":        cat([]byte{byte(object.KSet)}, huge),
		"list arity wraps negative":       cat([]byte{byte(object.KList)}, huge),
		"tuple type name wraps negative":  cat([]byte{byte(object.KTuple)}, huge),
		"string length exceeds remaining": {byte(object.KString), 0x10, 'a'},
		"set arity exceeds remaining":     {byte(object.KSet), 0x7f},
	}
	for name, v := range values {
		cases["response value: "+name] = input{RespValue, v}
		cases["call argument: "+name] = input{OpCall, cat([]byte{1, 'f', 1}, v)}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			var err error
			if c.op >= RespHello {
				_, err = DecodeResponse(c.op, c.payload)
			} else {
				_, err = DecodeRequest(c.op, c.payload)
			}
			var we *Error
			if !errors.As(err, &we) || we.Code != CodeMalformed {
				t.Fatalf("% x: %v, want a CodeMalformed *Error", c.payload, err)
			}
		})
	}
}

// TestBatchOpValidation: only elementary updates and calls may ride inside
// a batch, and batch ops do not nest.
func TestBatchOpValidation(t *testing.T) {
	if _, err := EncodeRequest(&Request{Op: OpBatchOp, Sub: &Request{Op: OpFlush}}); CodeOf(err) != CodeBadRequest {
		t.Errorf("encode non-batchable sub-op: %v", err)
	}
	if _, err := EncodeRequest(&Request{Op: OpBatchOp}); CodeOf(err) != CodeBadRequest {
		t.Errorf("encode empty batch op: %v", err)
	}
	payload := []byte{byte(OpBatchOp)} // nested batch op
	if _, err := DecodeRequest(OpBatchOp, payload); err == nil {
		t.Error("nested batch op accepted")
	}
	payload = []byte{byte(OpFlush)}
	if _, err := DecodeRequest(OpBatchOp, payload); CodeOf(err) != CodeBadRequest {
		t.Errorf("decode non-batchable sub-op: %v", err)
	}
}

// TestMaterializeFlagBits: the Materialize flags byte defines bits 0-2
// (Complete, SecondChance, UseMDS); any other bit, 0x08 included, is
// malformed rather than silently dropped.
func TestMaterializeFlagBits(t *testing.T) {
	p, err := EncodeRequest(&Request{Op: OpMaterialize, Mat: MatOptions{
		Name: "vol", Funcs: []string{"Cuboid.volume"},
		Complete: true, SecondChance: true, UseMDS: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The payload ends with the flags byte and MaxEntries = 0 (one varint byte).
	flagsAt := len(p) - 2
	if p[flagsAt] != 0x07 {
		t.Fatalf("flags byte = 0x%02x, want 0x07", p[flagsAt])
	}
	if _, err := DecodeRequest(OpMaterialize, p); err != nil {
		t.Fatalf("all defined flags: %v", err)
	}
	for _, bit := range []byte{0x08, 0x10, 0x80} {
		bad := append([]byte(nil), p...)
		bad[flagsAt] |= bit
		if _, err := DecodeRequest(OpMaterialize, bad); CodeOf(err) != CodeMalformed {
			t.Errorf("flag 0x%02x: got %v, want CodeMalformed", bit, err)
		}
	}
}

// TestTrailingGarbage: a payload with trailing bytes after a valid body is
// malformed — the peer disagrees about the encoding and silently ignoring
// the tail would mask it.
func TestTrailingGarbage(t *testing.T) {
	p, err := EncodeRequest(&Request{Op: OpDelete, OID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequest(OpDelete, append(p, 0x00)); CodeOf(err) != CodeMalformed {
		t.Errorf("trailing garbage accepted: %v", err)
	}
	rp, err := EncodeResponse(&Response{Op: RespOID, OID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(RespOID, append(rp, 0x00)); CodeOf(err) != CodeMalformed {
		t.Errorf("trailing response garbage accepted: %v", err)
	}
}

// TestDecodeFrameDoesNotAliasInput: mutating the input buffer after a
// decode must not change the frame (sessions reuse read buffers).
func TestDecodeFrameDoesNotAliasInput(t *testing.T) {
	raw := EncodeFrame(&Frame{Op: OpHello, ReqID: 1, Payload: []byte("token")})
	f, _, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, bytes.Repeat([]byte{0xAA}, len(raw)))
	if string(f.Payload) != "token" {
		t.Fatal("decoded frame aliases the input buffer")
	}
}

// TestRequestReflectRoundTrip: decoded requests compare structurally equal
// to the originals (not just byte-equal encodings) for a representative
// subset, catching field-mapping mistakes the encoding identity would hide.
func TestRequestReflectRoundTrip(t *testing.T) {
	orig := &Request{Op: OpSum, Name: "Cuboid.weight", HasOIDs: true, OIDs: []object.OID{2, 3}}
	p, err := EncodeRequest(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(OpSum, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("got %+v, want %+v", got, orig)
	}
}
