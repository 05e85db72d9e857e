package object

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// Binary encoding of values, object records, GMR records and network
// payloads: the repository's one value codec. Records must be compact: the
// cost model depends on realistic object sizes (a Vertex is a few dozen
// bytes, so ~40 of them share a 4 KB page, matching the paper's setup).
// Integers are uvarints or zig-zag varints, floats little-endian IEEE 754,
// strings and runs length-prefixed, and a value is its Kind byte followed by
// its payload.
//
// The Decoder holds the bounds for every value, record and payload it reads
// — object and directory records read back from disk, and the wire
// protocol's payloads. It never panics and never over-allocates: every
// length and count is compared with the bytes left in the uint64 domain
// before it is used, and the first violation latches, after which every read
// returns a zero value.

// Encoder appends encodings to Buf, which may be a caller's buffer.
type Encoder struct{ Buf []byte }

func (e *Encoder) U8(v uint8)       { e.Buf = append(e.Buf, v) }
func (e *Encoder) Bool(v bool)      { e.Buf = appendBool(e.Buf, v) }
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Encoder) F64(v float64)    { e.Buf = appendF64(e.Buf, v) }
func (e *Encoder) Str(s string)     { e.Buf = appendStr(e.Buf, s) }
func (e *Encoder) Value(v Value)    { e.Buf = AppendValue(e.Buf, v) }

// Values appends a count-prefixed run of values.
func (e *Encoder) Values(vs []Value) { e.Buf = appendValues(e.Buf, vs) }

// AppendValue appends the encoding of v to b: its Kind, then its payload.
// It is what Encoder.Value runs, in a form whose buffer can stay on the
// caller's stack (an Encoder's buffer moves to the heap, because its methods
// store through a pointer).
func AppendValue(b []byte, v Value) []byte {
	b = append(b, uint8(v.Kind))
	switch v.Kind {
	case KNull:
	case KBool:
		b = appendBool(b, v.B)
	case KInt:
		b = binary.AppendVarint(b, v.I)
	case KFloat:
		b = appendF64(b, v.F)
	case KString:
		b = appendStr(b, v.S)
	case KRef:
		b = binary.AppendUvarint(b, uint64(v.R))
	case KTuple, KSet, KList:
		if v.Kind == KTuple {
			b = appendStr(b, v.TupleType)
		}
		b = binary.AppendUvarint(b, uint64(len(v.Elems)))
		for _, el := range v.Elems {
			b = AppendValue(b, el)
		}
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Decoder reads what an Encoder wrote. The first error latches: every read
// after it is a no-op returning a zero value, so decode paths read straight
// through and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf. Decoded strings are copies; only
// RawStr aliases buf.
func NewDecoder(buf []byte) Decoder { return Decoder{buf: buf} }

// Err returns the latched error, if any.
func (d *Decoder) Err() error { return d.err }

// Fail latches an error unless one is already latched.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Finish latches an error if bytes remain after the last read, and returns
// the latched error.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Fail("object: %d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

func (d *Decoder) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.Fail("object: truncated record (u8 at %d)", d.off)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *Decoder) Bool() bool { return d.U8() != 0 }

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("object: truncated record (uvarint at %d)", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("object: truncated record (varint at %d)", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.Fail("object: truncated record (f64 at %d)", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// RawStr returns the bytes of a length-prefixed string. The slice aliases
// the input.
func (d *Decoder) RawStr() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	// Compare in the uint64 domain: a hostile 64-bit length must not wrap
	// negative under int conversion and slip past the bound (the slice
	// expression below would panic). len-off is never negative.
	if n > uint64(len(d.buf)-d.off) {
		d.Fail("object: truncated record (string of %d at %d)", n, d.off)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *Decoder) Str() string { return string(d.RawStr()) }

// Count reads the length prefix of a run of encoded items, each taking at
// least min bytes, and bounds it by the bytes left. The comparison is in the
// uint64 domain: an int conversion of a hostile 64-bit count can wrap
// negative, pass a signed comparison, and panic in make or be accepted as an
// empty run.
func (d *Decoder) Count(min int) int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)-d.off)/uint64(min) {
		d.Fail("object: count %d exceeds the %d bytes left", n, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

// Values decodes a count-prefixed run of values.
func (d *Decoder) Values() []Value {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = d.Value()
	}
	return vs
}

func (d *Decoder) Value() Value {
	k := Kind(d.U8())
	switch k {
	case KNull:
		return Null()
	case KBool:
		return Bool(d.Bool())
	case KInt:
		return Int(d.Varint())
	case KFloat:
		return Float(d.F64())
	case KString:
		return String_(d.Str())
	case KRef:
		return Ref(OID(d.Uvarint()))
	case KTuple:
		tn := d.Str()
		elems := d.Values()
		if d.err != nil {
			return Null()
		}
		return Value{Kind: KTuple, TupleType: tn, Elems: elems}
	case KSet, KList:
		elems := d.Values()
		if d.err != nil {
			return Null()
		}
		return Value{Kind: k, Elems: elems}
	default:
		d.Fail("object: unknown value kind %d", k)
		return Null()
	}
}

// skipValue advances over one encoded value exactly as Value would, without
// building it.
func (d *Decoder) skipValue() {
	k := Kind(d.U8())
	switch k {
	case KNull:
	case KBool:
		d.U8()
	case KInt:
		d.Varint()
	case KFloat:
		d.F64()
	case KString:
		d.RawStr()
	case KRef:
		d.Uvarint()
	case KTuple, KSet, KList:
		if k == KTuple {
			d.RawStr()
		}
		for n := d.Count(1); n > 0 && d.err == nil; n-- {
			d.skipValue()
		}
	default:
		d.Fail("object: unknown value kind %d", k)
	}
}

// appendObj appends an object record to b: type name, attributes, elements,
// and the ObjDepFct marking set.
func appendObj(b []byte, o *Obj) []byte {
	b = appendStr(b, o.Type)
	b = appendValues(b, o.Attrs)
	b = appendValues(b, o.Elems)
	b = binary.AppendUvarint(b, uint64(len(o.DepFcts)))
	for _, f := range o.DepFcts {
		b = appendStr(b, f)
	}
	return b
}

// appendValues appends a count-prefixed run of values, as Encoder.Values.
func appendValues(b []byte, vs []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendValue(b, v)
	}
	return b
}

// decodeObj decodes a whole object record. The type name and the ObjDepFct
// ids are interned, so buf may alias a pinned page: nothing decoded refers
// back into it.
func (m *Manager) decodeObj(oid OID, buf []byte) (*Obj, error) {
	d := NewDecoder(buf)
	o := &Obj{OID: oid, Type: m.Reg.internName(d.RawStr())}
	o.Attrs = d.Values()
	o.Elems = d.Values()
	if n := d.Count(1); n > 0 {
		o.DepFcts = make([]string, n)
		for i := range o.DepFcts {
			o.DepFcts[i] = m.depFcts.intern(d.RawStr())
		}
	}
	return o, d.err
}

// attr decodes attribute i of an object record whose type tag has already
// been read, skipping the attributes before it without building them.
func (d *Decoder) attr(i int) Value {
	if n := d.Count(1); d.err == nil && i >= n {
		d.Fail("object: attribute %d of %d", i, n)
	}
	for ; i > 0 && d.err == nil; i-- {
		d.skipValue()
	}
	return d.Value()
}

// internTable hands out one shared string per distinct byte sequence, so
// decoding a recurring string from a record allocates nothing. Lookups take
// no lock: the table is an immutable map behind an atomic pointer, and adding
// an entry replaces it with a copy. It suits small, stable vocabularies; past
// maxInterned entries new strings are returned uninterned instead of growing
// the table (a corrupt or hostile record cannot inflate it).
type internTable struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]string]
}

const maxInterned = 1024

func (t *internTable) intern(b []byte) string {
	if m := t.m.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var cur map[string]string
	if m := t.m.Load(); m != nil {
		cur = *m
	}
	if s, ok := cur[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(cur) >= maxInterned {
		return s
	}
	next := make(map[string]string, len(cur)+1)
	maps.Copy(next, cur)
	next[s] = s
	t.m.Store(&next)
	return s
}
