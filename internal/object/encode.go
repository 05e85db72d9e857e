package object

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"sync"
	"sync/atomic"
)

// Binary record encoding for objects and values. Records must be compact:
// the cost model depends on realistic object sizes (a Vertex is a few dozen
// bytes, so ~40 of them share a 4 KB page, matching the paper's setup).

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}
func (e *encoder) varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) value(v Value) {
	e.u8(uint8(v.Kind))
	switch v.Kind {
	case KNull:
	case KBool:
		if v.B {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case KInt:
		e.varint(v.I)
	case KFloat:
		e.f64(v.F)
	case KString:
		e.str(v.S)
	case KRef:
		e.uvarint(uint64(v.R))
	case KTuple:
		e.str(v.TupleType)
		e.uvarint(uint64(len(v.Elems)))
		for _, el := range v.Elems {
			e.value(el)
		}
	case KSet, KList:
		e.uvarint(uint64(len(v.Elems)))
		for _, el := range v.Elems {
			e.value(el)
		}
	}
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("object: truncated record (u8 at %d)", d.off)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("object: truncated record (uvarint at %d)", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("object: truncated record (varint at %d)", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("object: truncated record (f64 at %d)", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// rawStr returns the bytes of a length-prefixed string. The slice aliases the
// record being decoded.
func (d *decoder) rawStr() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	// Compare in the uint64 domain: a hostile 64-bit length must not wrap
	// negative under int conversion and slip past the bound (the slice
	// expression below would panic). len-off is never negative.
	if n > uint64(len(d.buf)-d.off) {
		d.fail("object: truncated record (string of %d at %d)", n, d.off)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) str() string { return string(d.rawStr()) }

// count reads the length prefix of a run of encoded items, each taking at
// least min bytes, and bounds it by the bytes left. The comparison is in the
// uint64 domain: an int conversion of a hostile 64-bit count can wrap
// negative, pass a signed comparison, and panic in make or be accepted as an
// empty run.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)-d.off)/uint64(min) {
		d.fail("object: count %d exceeds the %d bytes left", n, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

// values decodes a count-prefixed run of values.
func (d *decoder) values() []Value {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = d.value()
	}
	return vs
}

func (d *decoder) value() Value {
	k := Kind(d.u8())
	switch k {
	case KNull:
		return Null()
	case KBool:
		return Bool(d.u8() != 0)
	case KInt:
		return Int(d.varint())
	case KFloat:
		return Float(d.f64())
	case KString:
		return String_(d.str())
	case KRef:
		return Ref(OID(d.uvarint()))
	case KTuple:
		tn := d.str()
		elems := d.values()
		if d.err != nil {
			return Null()
		}
		return Value{Kind: KTuple, TupleType: tn, Elems: elems}
	case KSet, KList:
		elems := d.values()
		if d.err != nil {
			return Null()
		}
		return Value{Kind: k, Elems: elems}
	default:
		d.fail("object: unknown value kind %d", k)
		return Null()
	}
}

// skipValue advances over one encoded value exactly as value would, without
// building it.
func (d *decoder) skipValue() {
	k := Kind(d.u8())
	switch k {
	case KNull:
	case KBool:
		d.u8()
	case KInt:
		d.varint()
	case KFloat:
		d.f64()
	case KString:
		d.rawStr()
	case KRef:
		d.uvarint()
	case KTuple, KSet, KList:
		if k == KTuple {
			d.rawStr()
		}
		for n := d.count(1); n > 0 && d.err == nil; n-- {
			d.skipValue()
		}
	default:
		d.fail("object: unknown value kind %d", k)
	}
}

// EncodeValue serializes a single value (used for GMR records).
func EncodeValue(v Value) []byte {
	var e encoder
	e.value(v)
	return e.buf
}

// DecodeValue deserializes a value produced by EncodeValue and returns the
// number of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	d := decoder{buf: buf}
	v := d.value()
	return v, d.off, d.err
}

// encodeObj serializes an object record: type name, attributes, elements,
// and the ObjDepFct marking set.
func encodeObj(o *Obj) []byte {
	var e encoder
	e.str(o.Type)
	e.uvarint(uint64(len(o.Attrs)))
	for _, v := range o.Attrs {
		e.value(v)
	}
	e.uvarint(uint64(len(o.Elems)))
	for _, v := range o.Elems {
		e.value(v)
	}
	e.uvarint(uint64(len(o.DepFcts)))
	for _, f := range o.DepFcts {
		e.str(f)
	}
	return e.buf
}

// decodeObj decodes a whole object record. The type name and the ObjDepFct
// ids are interned, so buf may alias a pinned page: nothing decoded refers
// back into it.
func (m *Manager) decodeObj(oid OID, buf []byte) (*Obj, error) {
	d := decoder{buf: buf}
	o := &Obj{OID: oid, Type: m.Reg.internName(d.rawStr())}
	o.Attrs = d.values()
	o.Elems = d.values()
	if n := d.count(1); n > 0 {
		o.DepFcts = make([]string, n)
		for i := range o.DepFcts {
			o.DepFcts[i] = m.depFcts.intern(d.rawStr())
		}
	}
	return o, d.err
}

// attr decodes attribute i of an object record whose type tag has already
// been read, skipping the attributes before it without building them.
func (d *decoder) attr(i int) Value {
	if n := d.count(1); d.err == nil && i >= n {
		d.fail("object: attribute %d of %d", i, n)
	}
	for ; i > 0 && d.err == nil; i-- {
		d.skipValue()
	}
	return d.value()
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
