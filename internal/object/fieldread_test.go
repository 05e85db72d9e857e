package object

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"
	"unsafe"
)

// fieldTypes registers a two-level hierarchy whose flattened layout mixes
// every value kind, so the field reader has to skip each of them.
func fieldTypes(t *testing.T, reg *Registry) {
	t.Helper()
	base := NewTupleType("Base",
		AttrDef{Name: "Name", Type: "string"},
		AttrDef{Name: "Tags", Type: "Tags"},
		AttrDef{Name: "Pos", Type: "Pos"})
	sub := NewTupleType("Part",
		AttrDef{Name: "N", Type: "int"},
		AttrDef{Name: "Weight", Type: "float"},
		AttrDef{Name: "Owner", Type: "Base"},
		AttrDef{Name: "Done", Type: "bool"},
		AttrDef{Name: "Note", Type: "string"})
	sub.Super = "Base"
	for _, ty := range []*Type{base, sub} {
		if err := reg.Register(ty); err != nil {
			t.Fatal(err)
		}
	}
}

// randomPart returns attribute values for a Part in layout order.
func randomPart(rng *rand.Rand, owner OID) []Value {
	return []Value{
		String_(string(make([]byte, rng.Intn(30)))),
		SetVal(randomValue(rng, 2), randomValue(rng, 1)),
		TupleVal("Pos", Float(rng.Float64()), ListVal(Int(rng.Int63n(1000)-500))),
		Int(rng.Int63n(1 << 40)),
		Float(rng.NormFloat64()),
		Ref(owner),
		Bool(rng.Intn(2) == 0),
		Null(),
	}
}

func sameValue(a, b Value) bool {
	var ea, eb Encoder
	ea.Value(a)
	eb.Value(b)
	return bytes.Equal(ea.Buf, eb.Buf)
}

// TestReadAttrMatchesGet: the field reader returns what a full decode
// returns for every attribute, and charges exactly what Get charges — the
// same page pins, CPU units and Reads increment. TypeOf charges the same.
func TestReadAttrMatchesGet(t *testing.T) {
	m, reg := testManager(t)
	fieldTypes(t, reg)
	rng := rand.New(rand.NewSource(3))
	var oids []OID
	for i := 0; i < 150; i++ {
		oid, err := m.Create("Part", randomPart(rng, OID(i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			o, _ := m.Get(oid)
			o.AddDepFct("Part.mass")
			o.AddDepFct("Base.label")
			if err := m.Put(o); err != nil {
				t.Fatal(err)
			}
		}
		oids = append(oids, oid)
	}
	layout := m.Layout("Part")
	for _, oid := range oids {
		for i, a := range layout {
			c0, r0 := m.Clock.Snapshot(), m.Reads
			v, err := m.ReadAttr(oid, a.Name)
			if err != nil {
				t.Fatal(err)
			}
			c1, r1 := m.Clock.Snapshot(), m.Reads
			o, err := m.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			c2, r2 := m.Clock.Snapshot(), m.Reads
			if !sameValue(v, o.Attrs[i]) {
				t.Fatalf("%v.%s: ReadAttr = %v, Get = %v", oid, a.Name, v, o.Attrs[i])
			}
			if c1.Sub(c0) != c2.Sub(c1) || r1-r0 != r2-r1 {
				t.Fatalf("%v.%s: ReadAttr charged %+v (%d reads), Get %+v (%d reads)",
					oid, a.Name, c1.Sub(c0), r1-r0, c2.Sub(c1), r2-r1)
			}
		}
		c0 := m.Clock.Snapshot()
		if typ, err := m.TypeOf(oid); err != nil || typ != "Part" {
			t.Fatalf("TypeOf(%v) = %q, %v", oid, typ, err)
		}
		c1 := m.Clock.Snapshot()
		if _, err := m.Get(oid); err != nil {
			t.Fatal(err)
		}
		if c1.Sub(c0) != m.Clock.Sub(c1) {
			t.Fatalf("TypeOf charged %+v, Get %+v", c1.Sub(c0), m.Clock.Sub(c1))
		}
	}
	if _, err := m.ReadAttr(oids[0], "Missing"); err == nil {
		t.Fatal("ReadAttr of a missing attribute succeeded")
	}
	if _, err := m.ReadAttr(OID(1<<40), "N"); err == nil {
		t.Fatal("ReadAttr of a dangling reference succeeded")
	}
}

// TestDecodeInternsTypeAndDepFcts: two decodes of records naming the same
// type and ObjDepFct ids share the strings instead of allocating new ones.
func TestDecodeInternsTypeAndDepFcts(t *testing.T) {
	m, reg := testManager(t)
	fieldTypes(t, reg)
	rng := rand.New(rand.NewSource(1))
	var objs []*Obj
	for i := 0; i < 2; i++ {
		oid, err := m.Create("Part", randomPart(rng, 1))
		if err != nil {
			t.Fatal(err)
		}
		o, _ := m.Get(oid)
		o.AddDepFct("Part.mass")
		if err := m.Put(o); err != nil {
			t.Fatal(err)
		}
		if o, err = m.Get(oid); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	a, b := objs[0], objs[1]
	if unsafe.StringData(a.Type) != unsafe.StringData(b.Type) {
		t.Fatal("type names decoded into separate strings")
	}
	if unsafe.StringData(a.DepFcts[0]) != unsafe.StringData(b.DepFcts[0]) {
		t.Fatal("ObjDepFct ids decoded into separate strings")
	}
}

func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestReadAttrAllocatesNothing: reading a float or a reference attribute
// from a resident record allocates nothing — no record copy, no decoded
// object, no type-name string.
func TestReadAttrAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, reg := testManager(t)
	fieldTypes(t, reg)
	oid, err := m.Create("Part", randomPart(rand.New(rand.NewSource(1)), 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"Weight", "Owner"} {
		var v Value
		n := testing.AllocsPerRun(100, func() {
			if v, err = m.ReadAttr(oid, attr); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("ReadAttr(%s) allocates %v times per call, want 0", attr, n)
		}
		if v.Kind != KFloat && v.Kind != KRef {
			t.Errorf("ReadAttr(%s) = %v", attr, v)
		}
	}
}

// FuzzObjectRecord feeds arbitrary bytes to the object-record decoders and
// editors. None may panic. Whenever the full decode succeeds the field
// reader must return the same value for every attribute and fail past the
// last one, and every edit must match the decode → mutate → encode oracle
// (checkEdits) and the receiver view must hold the decoded OID, type and
// ObjDepFct set; whenever it fails, every edit and the view must fail too.
func FuzzObjectRecord(f *testing.F) {
	f.Add(appendObj(nil, &Obj{Type: "Vertex", Attrs: []Value{Float(1), Float(-2.5), Float(3)}}))
	f.Add(appendObj(nil, &Obj{Type: "Part", Attrs: randomPart(rand.New(rand.NewSource(2)), 9),
		DepFcts: []string{"Base.label", "Part.mass"}}))
	f.Add(appendObj(nil, &Obj{Type: "Points", Elems: []Value{Ref(1), Ref(2), Ref(3)}}))
	f.Fuzz(func(t *testing.T, rec []byte) {
		m := &Manager{Reg: NewRegistry()}
		o, err := m.decodeObj(1, rec)
		n := 8
		if err == nil {
			n = len(o.Attrs) + 1
		}
		for i := 0; i < n; i++ {
			d := NewDecoder(rec)
			d.RawStr()
			v := d.attr(i)
			if err != nil {
				continue
			}
			switch {
			case i == len(o.Attrs) && d.err == nil:
				t.Fatalf("field reader returned attribute %d of %d", i, len(o.Attrs))
			case i < len(o.Attrs) && d.err != nil:
				t.Fatalf("field reader fails on attribute %d where the full decode succeeds: %v", i, d.err)
			case i < len(o.Attrs) && !sameValue(v, o.Attrs[i]):
				t.Fatalf("attribute %d: field reader %v, full decode %v", i, v, o.Attrs[i])
			}
		}
		r, rerr := m.recvOf(1, rec, nil)
		if (rerr == nil) != (err == nil) {
			t.Fatalf("the receiver view fails with %v, the full decode with %v", rerr, err)
		}
		if err == nil {
			sameRecv(t, "receiver view", r, o)
			checkEdits(t, m, rec, o)
		} else {
			checkEditsFail(t, rec)
		}
		d := NewDecoder(rec)
		d.Value()
	})
}
