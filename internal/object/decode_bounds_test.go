package object

import "testing"

// huge is a uvarint of 2^63+: it wraps negative under int conversion.
var huge = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestDecodeValueHostileLengths: a malformed record whose length or arity
// prefix is a huge 64-bit value must fail cleanly, not panic. Before the
// bounds checks moved to the uint64 domain, int conversion wrapped these
// counts negative: the string path sliced with a negative high index and the
// tuple/set paths called make with a negative length — both runtime panics,
// reachable from any untrusted byte stream fed to the Decoder (the network
// protocol decodes its payloads with it; internal/wire's TestStreamChunkBounds
// runs these inputs through its request and response decoders too).
func TestDecodeValueHostileLengths(t *testing.T) {
	cases := map[string][]byte{
		"string length wraps negative":    append([]byte{byte(KString)}, huge...),
		"tuple arity wraps negative":      append([]byte{byte(KTuple), 0}, huge...),
		"set arity wraps negative":        append([]byte{byte(KSet)}, huge...),
		"list arity wraps negative":       append([]byte{byte(KList)}, huge...),
		"tuple type name wraps negative":  append([]byte{byte(KTuple)}, huge...),
		"string length exceeds remaining": {byte(KString), 0x10, 'a'},
		"set arity exceeds remaining":     {byte(KSet), 0x7f},
	}
	for name, buf := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decoder.Value panicked: %v", r)
				}
			}()
			d := NewDecoder(buf)
			if d.Value(); d.Err() == nil {
				t.Fatalf("Decoder.Value(% x) = nil error, want failure", buf)
			}
		})
	}
}

// TestDecodeObjHostileCounts covers the object record's own counts. Before
// they were compared in the uint64 domain, a huge attribute or element count
// panicked in make, and a huge ObjDepFct count wrapped negative and the
// corrupt record was accepted with a nil error.
func TestDecodeObjHostileCounts(t *testing.T) {
	typeTag := []byte{1, 'T'}
	float := cat([]byte{byte(KFloat)}, make([]byte, 8))
	cases := map[string][]byte{
		"type tag length wraps negative":  huge,
		"attribute count wraps negative":  cat(typeTag, huge),
		"element count wraps negative":    cat(typeTag, []byte{1}, float, huge),
		"DepFct count wraps negative":     cat(typeTag, []byte{1}, float, []byte{0}, huge),
		"attribute count exceeds record":  cat(typeTag, []byte{9}, float),
		"DepFct count exceeds record":     cat(typeTag, []byte{0, 0, 5, 1, 'f'}),
		"DepFct id exceeds record":        cat(typeTag, []byte{0, 0, 1, 9, 'f'}),
		"attribute value is not a value":  cat(typeTag, []byte{1, 0xee}),
		"nested set arity wraps negative": cat(typeTag, []byte{1, byte(KSet)}, huge),
	}
	m := &Manager{Reg: NewRegistry()}
	for name, rec := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decodeObj panicked: %v", r)
				}
			}()
			if _, err := m.decodeObj(1, rec); err == nil {
				t.Fatalf("decodeObj(% x) = nil error, want failure", rec)
			}
		})
	}
}

// TestFieldReaderHostileRecords: the skip-to-field path must fail the same
// way on every corruption between the type tag and the requested attribute,
// including hostile counts inside the attributes it skips.
func TestFieldReaderHostileRecords(t *testing.T) {
	typeTag := []byte{1, 'T'}
	float := cat([]byte{byte(KFloat)}, make([]byte, 8))
	cases := map[string]struct {
		rec []byte
		i   int
	}{
		"type tag length wraps negative":         {huge, 0},
		"attribute count wraps negative":         {cat(typeTag, huge), 0},
		"attribute past the count":               {cat(typeTag, []byte{1}, float), 1},
		"skipped string wraps negative":          {cat(typeTag, []byte{2, byte(KString)}, huge), 1},
		"skipped tuple arity wraps negative":     {cat(typeTag, []byte{2, byte(KTuple), 0}, huge), 1},
		"skipped list arity wraps negative":      {cat(typeTag, []byte{2, byte(KList)}, huge), 1},
		"skipped set element kind unknown":       {cat(typeTag, []byte{2, byte(KSet), 1, 0xee}, float), 1},
		"skipped float truncated":                {cat(typeTag, []byte{2, byte(KFloat), 0}), 1},
		"target truncated":                       {cat(typeTag, []byte{2}, float, []byte{byte(KFloat), 0}), 1},
		"target set arity exceeds the record":    {cat(typeTag, []byte{1, byte(KSet), 0x7f}), 0},
		"attribute count exceeds record":         {cat(typeTag, []byte{0x7f}, float), 0},
		"skipped tuple type name wraps negative": {cat(typeTag, []byte{2, byte(KTuple)}, huge), 1},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("field reader panicked: %v", r)
				}
			}()
			d := NewDecoder(c.rec)
			d.RawStr()
			d.attr(c.i)
			if d.err == nil {
				t.Fatalf("attr(%d) of % x = nil error, want failure", c.i, c.rec)
			}
		})
	}
}
