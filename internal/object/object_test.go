package object

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gomdb/internal/storage"
)

func testManager(t testing.TB) (*Manager, *Registry) {
	t.Helper()
	clock := storage.NewClock()
	disk := storage.NewDisk(clock)
	pool := storage.NewPool(disk, 50)
	reg := NewRegistry()
	return NewManager(reg, pool, clock), reg
}

func TestValueConstructorsAndEquality(t *testing.T) {
	cases := []struct {
		a, b  Value
		equal bool
	}{
		{Null(), Null(), true},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Int(3), Int(3), true},
		{Int(3), Float(3), true}, // numeric cross-kind equality
		{Float(2.5), Float(2.5), true},
		{Float(math.NaN()), Float(math.NaN()), true},
		{String_("a"), String_("a"), true},
		{String_("a"), String_("b"), false},
		{Ref(7), Ref(7), true},
		{Ref(7), Ref(8), false},
		{SetVal(Int(1), Int(2)), SetVal(Int(2), Int(1)), true}, // set order-insensitive
		{ListVal(Int(1), Int(2)), ListVal(Int(2), Int(1)), false},
		{TupleVal("T", Int(1)), TupleVal("T", Int(1)), true},
		{TupleVal("T", Int(1)), TupleVal("U", Int(1)), false},
		{Null(), Int(0), false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("case %d: %v.Equal(%v) = %v, want %v", i, c.a, c.b, got, c.equal)
		}
		if got := c.b.Equal(c.a); got != c.equal {
			t.Errorf("case %d: symmetry violated", i)
		}
	}
}

func TestValueContainsAndTruth(t *testing.T) {
	s := SetVal(Int(1), String_("x"))
	if !s.Contains(Int(1)) || !s.Contains(String_("x")) || s.Contains(Int(2)) {
		t.Fatal("Contains wrong")
	}
	if !Bool(true).Truth() || Bool(false).Truth() || Int(1).Truth() {
		t.Fatal("Truth wrong")
	}
}

// randomValue builds a random value of bounded depth for round-trip tests.
func randomValue(rng *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return Null()
		case 1:
			return Bool(rng.Intn(2) == 0)
		case 2:
			return Int(rng.Int63n(1 << 40))
		case 3:
			return Float(rng.NormFloat64() * 1e6)
		case 4:
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			return String_(string(b))
		default:
			return Ref(OID(rng.Int63n(1 << 30)))
		}
	}
	switch rng.Intn(3) {
	case 0:
		n := rng.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(rng, depth-1)
		}
		return SetVal(elems...)
	case 1:
		n := rng.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(rng, depth-1)
		}
		return ListVal(elems...)
	default:
		return TupleVal("T", randomValue(rng, depth-1), randomValue(rng, depth-1))
	}
}

func TestQuickValueEncodeRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomValue(rng, rng.Intn(4))
		var e Encoder
		e.Value(v)
		d := NewDecoder(e.Buf)
		got := d.Value()
		return d.Finish() == nil && got.Equal(v) && reflect.DeepEqual(got.Kind, v.Kind)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeValueRejectsGarbage(t *testing.T) {
	for _, buf := range [][]byte{{}, {255}, {uint8(KString), 200}, {uint8(KSet), 255, 255, 255, 255, 15}} {
		d := NewDecoder(buf)
		if d.Value(); d.Err() == nil {
			t.Errorf("Decoder.Value(%v) succeeded", buf)
		}
	}
}

func TestRegistryInheritance(t *testing.T) {
	reg := NewRegistry()
	person := NewTupleType("Person", AttrDef{Name: "Name", Type: "string"})
	if err := reg.Register(person); err != nil {
		t.Fatal(err)
	}
	emp := NewTupleType("Employee", AttrDef{Name: "Salary", Type: "float"})
	emp.Super = "Person"
	if err := reg.Register(emp); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewTupleType("Person")); err == nil {
		t.Fatal("duplicate type registered")
	}
	bad := NewTupleType("Bad")
	bad.Super = "Missing"
	if err := reg.Register(bad); err == nil {
		t.Fatal("unknown supertype accepted")
	}
	if err := reg.Register(NewTupleType("float")); err == nil {
		t.Fatal("atomic name collision accepted")
	}
	setOfPersons := NewSetType("People", "Person")
	setOfPersons.Super = "Person"
	if err := reg.Register(setOfPersons); err == nil {
		t.Fatal("set type extending tuple type accepted")
	}

	if !reg.IsSubtypeOf("Employee", "Person") || !reg.IsSubtypeOf("Employee", "Employee") {
		t.Fatal("IsSubtypeOf wrong")
	}
	if reg.IsSubtypeOf("Person", "Employee") {
		t.Fatal("supertype considered subtype")
	}
	if !reg.IsSubtypeOf("Person", "ANY") {
		t.Fatal("ANY is not a universal supertype")
	}
	if reg.HasSubtypes("Employee") || !reg.HasSubtypes("Person") {
		t.Fatal("HasSubtypes wrong")
	}
	attrs := reg.InheritedAttrs("Employee")
	if len(attrs) != 2 || attrs[0].Name != "Name" || attrs[1].Name != "Salary" {
		t.Fatalf("InheritedAttrs = %v", attrs)
	}
	with := reg.WithSubtypes("Person")
	if len(with) != 2 {
		t.Fatalf("WithSubtypes = %v", with)
	}
}

func TestManagerCRUDAndExtensions(t *testing.T) {
	m, reg := testManager(t)
	if err := reg.Register(NewTupleType("Point",
		AttrDef{Name: "X", Type: "float"}, AttrDef{Name: "Y", Type: "float"})); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewSetType("Points", "Point")); err != nil {
		t.Fatal(err)
	}

	var oids []OID
	for i := 0; i < 200; i++ {
		oid, err := m.Create("Point", []Value{Float(float64(i)), Float(0)})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if m.ExtensionSize("Point") != 200 {
		t.Fatalf("extension size %d", m.ExtensionSize("Point"))
	}
	o, err := m.Get(oids[13])
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := o.Attrs[0].AsFloat(); f != 13 {
		t.Fatalf("attr = %v", o.Attrs[0])
	}
	o.Attrs[1] = Float(99)
	if err := m.Put(o); err != nil {
		t.Fatal(err)
	}
	o2, _ := m.Get(oids[13])
	if f, _ := o2.Attrs[1].AsFloat(); f != 99 {
		t.Fatal("write-back lost")
	}
	// Delete removes from extension and invalidates the OID.
	if err := m.Delete(oids[13]); err != nil {
		t.Fatal(err)
	}
	if m.Exists(oids[13]) {
		t.Fatal("deleted object exists")
	}
	if _, err := m.Get(oids[13]); err == nil {
		t.Fatal("Get of deleted object succeeded")
	}
	if err := m.Delete(oids[13]); err == nil {
		t.Fatal("double delete succeeded")
	}
	if m.ExtensionSize("Point") != 199 {
		t.Fatalf("extension size after delete %d", m.ExtensionSize("Point"))
	}
	// Collections.
	setOID, err := m.CreateCollection("Points", []Value{Ref(oids[0]), Ref(oids[1])})
	if err != nil {
		t.Fatal(err)
	}
	so, _ := m.Get(setOID)
	if len(so.Elems) != 2 {
		t.Fatalf("set elems = %v", so.Elems)
	}
	// Kind mismatches.
	if _, err := m.Create("Points", nil); err == nil {
		t.Fatal("Create on set type succeeded")
	}
	if _, err := m.CreateCollection("Point", nil); err == nil {
		t.Fatal("CreateCollection on tuple type succeeded")
	}
	if _, err := m.Create("Nope", nil); err == nil {
		t.Fatal("Create of unknown type succeeded")
	}
	if _, err := m.Create("Point", []Value{Float(1)}); err == nil {
		t.Fatal("wrong attribute arity accepted")
	}
}

func TestExtensionIncludesSubtypes(t *testing.T) {
	m, reg := testManager(t)
	p := NewTupleType("Person", AttrDef{Name: "Name", Type: "string"})
	if err := reg.Register(p); err != nil {
		t.Fatal(err)
	}
	e := NewTupleType("Employee", AttrDef{Name: "Salary", Type: "float"})
	e.Super = "Person"
	if err := reg.Register(e); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("Person", []Value{String_("p")}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("Employee", []Value{String_("e"), Float(1)}); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Extension("Person")); n != 2 {
		t.Fatalf("Person extension = %d, want 2 (substitutability)", n)
	}
	if n := len(m.Extension("Employee")); n != 1 {
		t.Fatalf("Employee extension = %d", n)
	}
}

func TestDepFctsSortedSetOps(t *testing.T) {
	o := &Obj{}
	for _, f := range []string{"c", "a", "b", "a"} {
		o.AddDepFct(f)
	}
	if !reflect.DeepEqual(o.DepFcts, []string{"a", "b", "c"}) {
		t.Fatalf("DepFcts = %v", o.DepFcts)
	}
	if !o.HasDepFct("b") || o.HasDepFct("d") {
		t.Fatal("HasDepFct wrong")
	}
	if !o.RemoveDepFct("b") || o.RemoveDepFct("b") {
		t.Fatal("RemoveDepFct wrong")
	}
	if !reflect.DeepEqual(o.DepFcts, []string{"a", "c"}) {
		t.Fatalf("DepFcts after remove = %v", o.DepFcts)
	}
}

func TestObjPersistsDepFcts(t *testing.T) {
	m, reg := testManager(t)
	if err := reg.Register(NewTupleType("T", AttrDef{Name: "X", Type: "float"})); err != nil {
		t.Fatal(err)
	}
	oid, err := m.Create("T", []Value{Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := m.Get(oid)
	o.AddDepFct("f1")
	o.AddDepFct("f2")
	if err := m.Put(o); err != nil {
		t.Fatal(err)
	}
	o2, _ := m.Get(oid)
	if !o2.HasDepFct("f1") || !o2.HasDepFct("f2") {
		t.Fatalf("marks not persisted: %v", o2.DepFcts)
	}
}

func TestMaterializeValue(t *testing.T) {
	m, reg := testManager(t)
	if err := reg.Register(NewTupleType("Pair",
		AttrDef{Name: "A", Type: "float"}, AttrDef{Name: "B", Type: "float"})); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewSetType("Pairs", "Pair")); err != nil {
		t.Fatal(err)
	}
	v := SetVal(
		TupleVal("Pair", Float(1), Float(2)),
		TupleVal("Pair", Float(3), Float(4)),
	)
	ref, err := m.MaterializeValue(v, "Pairs")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Kind != KRef {
		t.Fatalf("materialized value is %v", ref.Kind)
	}
	set, err := m.Get(ref.R)
	if err != nil {
		t.Fatal(err)
	}
	if set.Type != "Pairs" || len(set.Elems) != 2 {
		t.Fatalf("set object: %+v", set)
	}
	pair, err := m.Get(set.Elems[0].R)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Type != "Pair" || len(pair.Attrs) != 2 {
		t.Fatalf("pair object: %+v", pair)
	}
	// Atomic values pass through.
	av, err := m.MaterializeValue(Float(7), "float")
	if err != nil || !av.Equal(Float(7)) {
		t.Fatalf("atomic MaterializeValue = %v, %v", av, err)
	}
}

func TestManagerChargesClock(t *testing.T) {
	m, _ := testManager(t)
	reg := m.Reg
	if err := reg.Register(NewTupleType("T", AttrDef{Name: "X", Type: "float"})); err != nil {
		t.Fatal(err)
	}
	before := m.Clock.Snapshot()
	for i := 0; i < 100; i++ {
		if _, err := m.Create("T", []Value{Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	d := m.Clock.Sub(before)
	if d.CPUOps == 0 {
		t.Fatal("creates charged no CPU")
	}
	if d.LogWrites == 0 {
		t.Fatal("creates charged no logical writes")
	}
}
