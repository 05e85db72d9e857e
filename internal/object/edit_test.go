package object

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gomdb/internal/storage"
)

// The oracle for the write path: decode the whole object, mutate it, encode
// it afresh. Every edit must write what this writes and charge what it
// charges.

// AddDepFct inserts fid into ObjDepFct; reports whether it was new.
func (o *Obj) AddDepFct(fid string) bool {
	i := sort.SearchStrings(o.DepFcts, fid)
	if i < len(o.DepFcts) && o.DepFcts[i] == fid {
		return false
	}
	o.DepFcts = append(o.DepFcts, "")
	copy(o.DepFcts[i+1:], o.DepFcts[i:])
	o.DepFcts[i] = fid
	return true
}

// RemoveDepFct removes fid from ObjDepFct; reports whether it was present.
func (o *Obj) RemoveDepFct(fid string) bool {
	i := sort.SearchStrings(o.DepFcts, fid)
	if i >= len(o.DepFcts) || o.DepFcts[i] != fid {
		return false
	}
	o.DepFcts = append(o.DepFcts[:i], o.DepFcts[i+1:]...)
	return true
}

// oracleSetAttr is SetAttr as Get, mutate, Put.
func oracleSetAttr(m *Manager, oid OID, attr string, v Value) error {
	o, err := m.Get(oid)
	if err != nil {
		return err
	}
	i := m.AttrIndex(o.Type, attr)
	if i < 0 {
		return noAttr(o.Type, attr)
	}
	o.Attrs[i] = v
	return m.Put(o)
}

// oracleDepFct is AddDepFct (add) or RemoveDepFct as Get, mutate, and Put
// when the set changed.
func oracleDepFct(m *Manager, oid OID, fid string, add bool) (bool, error) {
	o, err := m.Get(oid)
	if err != nil {
		return false, err
	}
	changed := false
	if add {
		changed = o.AddDepFct(fid)
	} else {
		changed = o.RemoveDepFct(fid)
	}
	if !changed {
		return false, nil
	}
	return true, m.Put(o)
}

// editSide is one object store of the oracle comparison.
type editSide struct {
	m    *Manager
	pool *storage.BufferPool
}

// newEditSide returns a store over a pool of frames pages with the Part
// hierarchy and a set type registered.
func newEditSide(t *testing.T, frames int) editSide {
	clock := storage.NewClock()
	pool := storage.NewPool(storage.NewDisk(clock), frames)
	reg := NewRegistry()
	fieldTypes(t, reg)
	if err := reg.Register(NewSetType("Bag", "Part")); err != nil {
		t.Fatal(err)
	}
	return editSide{NewManager(reg, pool, clock), pool}
}

// record returns oid's stored bytes without charging.
func (s editSide) record(t *testing.T, oid OID) []byte {
	t.Helper()
	rec, err := s.m.heap.ReadSnapshot(s.m.rids[oid])
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// sameState fails unless both stores hold the same records at the same RIDs
// and have charged the same Clock, buffer-pool hits and misses, Reads and
// Writes.
func sameState(t *testing.T, step string, a, b editSide, oids []OID) {
	t.Helper()
	if !reflect.DeepEqual(a.m.rids, b.m.rids) {
		t.Fatalf("%s: directories differ", step)
	}
	for _, oid := range oids {
		if ra, rb := a.record(t, oid), b.record(t, oid); !bytes.Equal(ra, rb) {
			t.Fatalf("%s: record of %v\n edit   %x\n oracle %x", step, oid, ra, rb)
		}
	}
	if ca, cb := a.m.Clock.Snapshot(), b.m.Clock.Snapshot(); ca != cb {
		t.Fatalf("%s: Clock %+v, oracle %+v", step, ca, cb)
	}
	ha, ma := a.pool.HitStats()
	hb, mb := b.pool.HitStats()
	if ha != hb || ma != mb {
		t.Fatalf("%s: HitStats (%d, %d), oracle (%d, %d)", step, ha, ma, hb, mb)
	}
	if a.m.Reads != b.m.Reads || a.m.Writes != b.m.Writes {
		t.Fatalf("%s: Reads/Writes %d/%d, oracle %d/%d", step, a.m.Reads, a.m.Writes, b.m.Reads, b.m.Writes)
	}
}

// TestEditMatchesOracle applies one random script of attribute sets and
// ObjDepFct adds and removes to two stores, through the edits on one and the
// decode → mutate → encode oracle on the other. Values of every kind go into
// every attribute, so records shrink, grow and relocate; the ids added and
// removed are present, absent, first and last. A 6-frame pool makes the
// script miss and evict. After every step both stores must hold identical
// bytes, directories, Clocks, HitStats and counters, and at the end the
// same buffer-pool recency order.
func TestEditMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	edit, oracle := newEditSide(t, 6), newEditSide(t, 6)
	var oids []OID
	for i := 0; i < 120; i++ {
		var ids []OID
		for _, s := range []editSide{edit, oracle} {
			var oid OID
			var err error
			if i%5 == 4 {
				oid, err = s.m.CreateCollection("Bag", []Value{Ref(OID(i)), randomValue(rand.New(rand.NewSource(int64(i))), 2)})
			} else {
				oid, err = s.m.Create("Part", randomPart(rand.New(rand.NewSource(int64(i))), OID(i)))
			}
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, oid)
		}
		if ids[0] != ids[1] {
			t.Fatal("OIDs diverged")
		}
		oids = append(oids, ids[0])
	}
	layout := edit.m.Layout("Part")
	vocab := []string{"Base.label", "Part.mass", "Part.owner_name", "f", "q.volume"}
	moved := 0
	for step := 0; step < 3000; step++ {
		oid := oids[rng.Intn(len(oids))]
		rid := edit.m.rids[oid]
		var name string
		var gotChanged, wantChanged bool
		var gotErr, wantErr error
		o, err := oracle.m.decodeObj(oid, oracle.record(t, oid))
		if err != nil {
			t.Fatal(err)
		}
		if r := rng.Intn(3); r == 0 && o.Type == "Part" {
			attr := layout[rng.Intn(len(layout))].Name
			v := randomValue(rng, 2)
			if rng.Intn(8) == 0 {
				v = String_(string(make([]byte, rng.Intn(900))))
			}
			hooked := rng.Intn(2) == 0
			name = fmt.Sprintf("step %d: %v.set_%s(%v) hooked=%v", step, oid, attr, v, hooked)
			var e AttrEdit
			e, gotErr = edit.m.SetAttr(oid, attr, v, nil, func(string) bool { return hooked })
			if e.Hooked() != hooked {
				t.Fatalf("%s: SetAttr returned the receiver %v", name, e.Recv)
			}
			if hooked {
				gotErr = e.Store()
			}
			wantErr = oracleSetAttr(oracle.m, oid, attr, v)
		} else {
			add := r != 2
			var fid string
			switch k := rng.Intn(5); {
			case k == 0 && len(o.DepFcts) > 0:
				fid = o.DepFcts[0]
			case k == 1 && len(o.DepFcts) > 0:
				fid = o.DepFcts[len(o.DepFcts)-1]
			case k == 2:
				fid = []string{"", "\x00", "~~~~"}[rng.Intn(3)]
			default:
				fid = vocab[rng.Intn(len(vocab))]
			}
			name = fmt.Sprintf("step %d: %v add=%v %q to %q", step, oid, add, fid, o.DepFcts)
			if add {
				gotChanged, gotErr = edit.m.AddDepFct(oid, fid)
			} else {
				gotChanged, gotErr = edit.m.RemoveDepFct(oid, fid)
			}
			wantChanged, wantErr = oracleDepFct(oracle.m, oid, fid, add)
		}
		if gotChanged != wantChanged || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: edit (%v, %v), oracle (%v, %v)", name, gotChanged, gotErr, wantChanged, wantErr)
		}
		sameState(t, name, edit, oracle, oids)
		if edit.m.rids[oid] != rid {
			moved++
		}
	}
	if a, b := edit.pool.RecencyOrder(), oracle.pool.RecencyOrder(); !reflect.DeepEqual(a, b) {
		t.Fatalf("recency order %v, oracle %v", a, b)
	}
	if _, misses := edit.pool.HitStats(); moved == 0 || misses == 0 {
		t.Fatalf("the script relocated %d records and missed %d times; it must do both", moved, misses)
	}
}

// TestSetAttrHookedDecodes: when the caller reports hooks for the type,
// SetAttr reads the record once, as Get does, writes nothing and decodes
// nothing: it allocates nothing once its buffers are warm, and the view it
// returns holds the OID, type and ObjDepFct set Get returns, the set in the
// caller's buffer. Store then writes and charges what Put of the mutated
// object does. A hooked update nested between another's read and store (as
// one in a Before hook would be) leaves the outer one's record intact, and a
// released edit gives its record buffer back.
func TestSetAttrHookedDecodes(t *testing.T) {
	edit, oracle := newEditSide(t, 6), newEditSide(t, 6)
	var oids [2]OID
	for _, s := range []editSide{edit, oracle} {
		for k := range oids {
			var err error
			if oids[k], err = s.m.Create("Part", randomPart(rand.New(rand.NewSource(int64(k))), 3)); err != nil {
				t.Fatal(err)
			}
			for _, fid := range []string{"Part.mass", "Base.label"} {
				if _, err := s.m.AddDepFct(oids[k], fid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	oid, inner := oids[0], oids[1]
	deps := make([]string, 0, 4)
	var asked string
	reads := edit.m.Reads
	e, err := edit.m.SetAttr(oid, "Weight", Float(9), deps, func(typ string) bool { asked = typ; return true })
	if err != nil {
		t.Fatal(err)
	}
	if n := edit.m.Reads - reads; n != 1 {
		t.Fatalf("a hooked SetAttr read %d records, want 1", n)
	}
	want, err := oracle.m.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	sameRecv(t, "hooked SetAttr", e.Recv, want)
	if asked != "Part" || &e.Recv.DepFcts[0] != &deps[:1][0] {
		t.Fatalf("hooked SetAttr asked about %q and read the ObjDepFct set into %p, not the caller's buffer %p", asked, e.Recv.DepFcts, deps)
	}
	sameState(t, "hooked SetAttr", edit, oracle, oids[:])
	hooked := func(string) bool { return true }
	n, err := edit.m.SetAttr(inner, "Name", String_("nested"), nil, hooked)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Store(); err != nil {
		t.Fatal(err)
	}
	if err := oracleSetAttr(oracle.m, inner, "Name", String_("nested")); err != nil {
		t.Fatal(err)
	}
	if err := e.Store(); err != nil {
		t.Fatal(err)
	}
	want.Attrs[edit.m.AttrIndex("Part", "Weight")] = Float(9)
	if err := oracle.m.Put(want); err != nil {
		t.Fatal(err)
	}
	sameState(t, "hooked stores", edit, oracle, oids[:])
	if e.Hooked() {
		t.Fatal("a stored edit still holds its record")
	}
	if _, err := edit.m.SetAttr(oid, "Nope", Float(1), deps, hooked); err == nil {
		t.Fatal("SetAttr of an absent attribute succeeded")
	}
	// A hooked update whose Before hooks fail releases its record buffer,
	// and the next one takes it.
	e, err = edit.m.SetAttr(oid, "Weight", Float(1), deps, hooked)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	e.Release()
	if !raceEnabled() {
		if a := testing.AllocsPerRun(50, func() {
			e, err := edit.m.SetAttr(oid, "Weight", Float(1), deps, hooked)
			if err != nil {
				t.Fatal(err)
			}
			e.Release()
		}); a != 0 {
			t.Errorf("a released hooked SetAttr allocates %v times, want 0", a)
		}
	}
	e, err = edit.m.SetAttr(oid, "Weight", Float(1), deps, hooked)
	if err != nil {
		t.Fatal(err)
	}
	if err := edit.m.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if err := e.Store(); err == nil {
		t.Fatal("Store of a deleted object succeeded")
	}
}

// sameRecv fails unless the receiver view r holds o's OID, type and
// ObjDepFct set.
func sameRecv(t *testing.T, what string, r Recv, o *Obj) {
	t.Helper()
	if r.OID != o.OID || r.Type != o.Type || !slices.Equal(r.DepFcts, o.DepFcts) {
		t.Fatalf("%s: view %v %q %q, Get returns %v %q %q", what, r.OID, r.Type, r.DepFcts, o.OID, o.Type, o.DepFcts)
	}
}

// TestEditsAllocateNothing: an unhooked attribute set, a hooked one with its
// Store, ReadRecv and both ObjDepFct edits of a resident record allocate
// nothing — no decoded object and no record bytes.
func TestEditsAllocateNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, reg := testManager(t)
	fieldTypes(t, reg)
	oid, err := m.Create("Part", randomPart(rand.New(rand.NewSource(1)), 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddDepFct(oid, "Base.label"); err != nil {
		t.Fatal(err)
	}
	x := 0.0
	if n := testing.AllocsPerRun(100, func() {
		x++
		if _, err := m.SetAttr(oid, "Weight", Float(x), nil, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SetAttr allocates %v times per call, want 0", n)
	}
	deps := make([]string, 0, 4)
	if n := testing.AllocsPerRun(100, func() {
		x++
		e, err := m.SetAttr(oid, "Weight", Float(x), deps, func(string) bool { return true })
		if err == nil {
			err = e.Store()
		}
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a hooked SetAttr and its Store allocate %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if r, err := m.ReadRecv(oid, deps); err != nil || len(r.DepFcts) != 1 {
			t.Fatal(r, err)
		}
	}); n != 0 {
		t.Errorf("ReadRecv allocates %v times per call, want 0", n)
	}
	for _, add := range []bool{true, false} {
		if n := testing.AllocsPerRun(100, func() {
			var changed bool
			if add {
				changed, err = m.AddDepFct(oid, "Part.mass")
				_, _ = m.RemoveDepFct(oid, "Part.mass")
			} else {
				_, _ = m.AddDepFct(oid, "Part.mass")
				changed, err = m.RemoveDepFct(oid, "Part.mass")
			}
			if err != nil || !changed {
				t.Fatal(changed, err)
			}
		}); n != 0 {
			t.Errorf("an ObjDepFct add and remove allocate %v times, want 0", n)
		}
	}
	if v, err := m.ReadAttr(oid, "Weight"); err != nil || v.F != x {
		t.Fatalf("Weight = %v (%v), want %v", v, err, x)
	}
}

// checkEdits is FuzzObjectRecord's edit leg. rec decoded to o. On the
// canonical record appendObj writes for o, every attribute set and every
// ObjDepFct add and remove must write the oracle's bytes and report the
// oracle's change. On rec itself, whose bytes may be non-canonical (an
// overlong varint, a bool byte other than 0 and 1, bytes past the ObjDepFct
// set) and which only a corrupt page could hold, the edit must still decode
// to the oracle's object.
func checkEdits(t *testing.T, m *Manager, rec []byte, o *Obj) {
	canon := appendObj(nil, o)
	oracle := func(mutate func(*Obj) bool) ([]byte, bool) {
		c, err := m.decodeObj(o.OID, canon)
		if err != nil {
			t.Fatalf("the canonical record does not decode: %v", err)
		}
		if !mutate(c) {
			return nil, false
		}
		return appendObj(nil, c), true
	}
	compare := func(what string, want []byte, wantOK bool, edit func(rec []byte) ([]byte, bool, error)) {
		for k, src := range [][]byte{canon, rec} {
			got, ok, err := edit(src)
			if err != nil || ok != wantOK {
				t.Fatalf("%s: edit reports (%v, %v), oracle %v", what, ok, err, wantOK)
			}
			if !ok {
				continue
			}
			if k == 0 {
				if !bytes.Equal(got, want) {
					t.Fatalf("%s:\n edit   %x\n oracle %x", what, got, want)
				}
				continue
			}
			d, err := m.decodeObj(o.OID, got)
			if err != nil {
				t.Fatalf("%s: the edited record does not decode: %v", what, err)
			}
			if re := appendObj(nil, d); !bytes.Equal(re, want) {
				t.Fatalf("%s: edited record decodes to\n %x\n oracle %x", what, re, want)
			}
		}
	}
	vals := []Value{Null(), Bool(true), Int(-1 << 40), Float(2.5), String_("abc"), Ref(1 << 35), ListVal(Int(1), String_(""))}
	for _, i := range probes(len(o.Attrs)) {
		v := vals[(i+len(rec))%len(vals)]
		want, _ := oracle(func(c *Obj) bool { c.Attrs[i] = v; return true })
		compare(fmt.Sprintf("set attribute %d to %v", i, v), want, true, func(src []byte) ([]byte, bool, error) {
			b, err := spliceAttr([]byte{0xEE}, src, i, v)
			return b[1:], err == nil, err
		})
	}
	fids := []string{"", "Part.mass", "\xff\xff"}
	for _, k := range probes(len(o.DepFcts)) {
		fids = append(fids, o.DepFcts[k])
	}
	for _, fid := range fids {
		for _, add := range []bool{true, false} {
			want, changed := oracle(func(c *Obj) bool {
				if add {
					return c.AddDepFct(fid)
				}
				return c.RemoveDepFct(fid)
			})
			compare(fmt.Sprintf("add=%v %q", add, fid), want, changed, func(src []byte) ([]byte, bool, error) {
				b, ok, err := spliceDepFct([]byte{0xEE}, src, fid, add)
				if !ok && len(b) != 1 {
					t.Fatalf("add=%v %q: a no-op edit appended %d bytes", add, fid, len(b)-1)
				}
				return b[1:], ok, err
			})
		}
	}
}

// probes returns the positions of a run of n an edit is checked at: both
// ends, their neighbours and the middle. Checking every position would make
// a fuzz input of n one-byte items cost O(n²).
func probes(n int) []int {
	var out []int
	for _, k := range []int{0, 1, n / 2, n - 2, n - 1} {
		if k >= 0 && k < n && !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// checkEditsFail: a record that does not decode fails every edit, as Get
// fails on it.
func checkEditsFail(t *testing.T, rec []byte) {
	for i := 0; i < 3; i++ {
		if _, err := spliceAttr(nil, rec, i, Null()); err == nil {
			t.Fatalf("setting attribute %d edited a record that does not decode", i)
		}
	}
	for _, add := range []bool{true, false} {
		if _, _, err := spliceDepFct(nil, rec, "f", add); err == nil {
			t.Fatalf("an ObjDepFct edit (add=%v) accepted a record that does not decode", add)
		}
	}
}
