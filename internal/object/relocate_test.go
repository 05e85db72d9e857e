package object

import (
	"reflect"
	"testing"
)

func relocateFixture(t testing.TB) (*Manager, []OID) {
	t.Helper()
	m, reg := testManager(t)
	if err := reg.Register(NewTupleType("Point",
		AttrDef{Name: "X", Type: "float"}, AttrDef{Name: "Y", Type: "float"})); err != nil {
		t.Fatal(err)
	}
	var oids []OID
	for i := 0; i < 120; i++ {
		oid, err := m.Create("Point", []Value{Float(float64(i)), Float(float64(-i))})
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	return m, oids
}

func TestManagerRelocateRemapsDirectory(t *testing.T) {
	m, oids := relocateFixture(t)

	// Interleave: evens first, then odds — a placement no insertion order
	// produced, so most records must physically move.
	order := make([]OID, 0, len(oids))
	for i := 0; i < len(oids); i += 2 {
		order = append(order, oids[i])
	}
	for i := 1; i < len(oids); i += 2 {
		order = append(order, oids[i])
	}
	moved, err := m.Relocate(order)
	if err != nil {
		t.Fatalf("relocate: %v", err)
	}
	if moved == 0 {
		t.Fatal("relocation moved nothing")
	}
	for i, oid := range oids {
		o, err := m.Get(oid)
		if err != nil {
			t.Fatalf("get %v after relocate: %v", oid, err)
		}
		if f, _ := o.Attrs[0].AsFloat(); f != float64(i) {
			t.Fatalf("object %v content changed: X=%v", oid, o.Attrs[0])
		}
	}
	if msgs := m.AuditDirectory(); len(msgs) != 0 {
		t.Fatalf("directory audit after relocate: %v", msgs)
	}
	// Extension iteration order is untouched — relocation changes placement,
	// not membership order.
	if got := m.Extension("Point"); !reflect.DeepEqual(got, oids) {
		t.Fatal("relocation disturbed extension order")
	}

	// Order validation.
	if _, err := m.Relocate(order[:len(order)-1]); err == nil {
		t.Fatal("short order accepted")
	}
	bad := append([]OID(nil), order...)
	bad[0] = OID(1 << 40)
	if _, err := m.Relocate(bad); err == nil {
		t.Fatal("unknown OID accepted")
	}
}

// TestDirectoryExportRestoreAfterRelocate covers the durable-recovery shape:
// a directory exported after relocation must restore to the exact relocated
// layout (same RIDs, same extension order), byte-identically re-exportable.
func TestDirectoryExportRestoreAfterRelocate(t *testing.T) {
	m, oids := relocateFixture(t)
	order := make([]OID, len(oids))
	for i, oid := range oids {
		order[len(oids)-1-i] = oid
	}
	if _, err := m.Relocate(order); err != nil {
		t.Fatalf("relocate: %v", err)
	}
	dir := m.ExportDirectory()

	if _, err := m.RestoreDirectory(m.heap, dir.NextOID, dir.Snapshot(), nil); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if msgs := m.AuditDirectory(); len(msgs) != 0 {
		t.Fatalf("directory audit after restore: %v", msgs)
	}
	dir2 := m.ExportDirectory()
	if !reflect.DeepEqual(dir, dir2) {
		t.Fatal("directory round-trip after relocation is not identical")
	}
	for i, oid := range oids {
		o, err := m.Get(oid)
		if err != nil {
			t.Fatalf("get %v after restore: %v", oid, err)
		}
		if f, _ := o.Attrs[0].AsFloat(); f != float64(i) {
			t.Fatalf("object %v content wrong after restore", oid)
		}
	}
}

func TestAuditDirectoryDetectsCorruption(t *testing.T) {
	m, oids := relocateFixture(t)
	if msgs := m.AuditDirectory(); len(msgs) != 0 {
		t.Fatalf("clean manager audits dirty: %v", msgs)
	}
	// Point two OIDs at the same slot: both the duplicate and the count
	// mismatch (heap count vs directory size stays equal here, so the
	// duplicate check is what must fire).
	m.rids[oids[1]] = m.rids[oids[0]]
	msgs := m.AuditDirectory()
	if len(msgs) == 0 {
		t.Fatal("audit missed a duplicated slot")
	}
	// Dangling entry: directory points at a slot the heap no longer has.
	m, oids = relocateFixture(t)
	rid := m.rids[oids[5]]
	if err := m.heap.Delete(rid); err != nil {
		t.Fatal(err)
	}
	msgs = m.AuditDirectory()
	if len(msgs) == 0 {
		t.Fatal("audit missed a dangling directory entry")
	}
}
