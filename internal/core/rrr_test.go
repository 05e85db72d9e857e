package core

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gomdb/internal/object"
	"gomdb/internal/storage"
)

// TestRRRIndexMatchesHeap is the oracle of the RRR's id-keyed index: random
// inserts and removes over all-reference, mixed and atomic argument
// combinations and predicate tuples, checked against a model kept the way
// the relation used to key its tuples (F+"\x00"+argKey). After every batch
// of steps the index is rebuilt from the heap by Scan and compared with the
// in-memory index, Lookup must return each object's tuples in sort.Strings
// order of those keys, and the first/last signals and FctCount must agree
// with the model. A twin relation takes the same steps and answers through
// lookupInto, which must charge exactly what Lookup charges.
func TestRRRIndexMatchesHeap(t *testing.T) {
	clock, twinClock := storage.NewClock(), storage.NewClock()
	r := NewRRR(storage.NewPool(storage.NewDisk(clock), 6))
	twin := NewRRR(storage.NewPool(storage.NewDisk(twinClock), 6))
	rng := rand.New(rand.NewSource(7))

	// OIDs straddling the uvarint byte boundaries, where numeric order and
	// encoded order part ways.
	oids := []object.OID{1, 2, 127, 128, 129, 255, 256, 300, 16383, 16384, 1 << 21}
	ref := func() object.Value { return object.Ref(oids[rng.Intn(len(oids))]) }
	var combos [][]object.Value
	for i := 0; i < 40; i++ {
		switch i % 8 {
		case 0:
			combos = append(combos, nil)
		case 1, 2:
			combos = append(combos, []object.Value{ref()})
		case 3, 4:
			combos = append(combos, []object.Value{ref(), ref()})
		case 5:
			combos = append(combos, []object.Value{ref(), ref(), ref()})
		case 6:
			combos = append(combos, []object.Value{ref(), object.Int(int64(rng.Intn(300) - 150))})
		default:
			combos = append(combos, []object.Value{object.Float(rng.Float64()), object.String_("s")})
		}
	}
	fids := []string{"Cuboid.volume", "Cuboid.vol", "Cuboid.weight", "p:Gvol", "p:G", "f"}
	objs := oids[:6]

	type tuple struct {
		f    string
		args []object.Value
	}
	model := make(map[object.OID]map[string]tuple)
	fctCount := func(o object.OID, f string) int {
		n := 0
		for _, tp := range model[o] {
			if tp.f == f {
				n++
			}
		}
		return n
	}

	check := func(step int) {
		t.Helper()
		// Rebuild the index from the heap.
		heap := make(map[object.OID][]string)
		n := 0
		if err := r.Scan(func(tp Tuple) bool {
			heap[tp.O] = append(heap[tp.O], tp.F+"\x00"+argKey(tp.Args))
			if tp.k != keyOf(r.ids[tp.F], tp.Args) {
				t.Fatalf("step %d: Scan key %+v of %v", step, tp.k, tp)
			}
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		// The twin reads what r read, so their pools stay alike.
		if err := twin.Scan(func(Tuple) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if n != r.Len() {
			t.Fatalf("step %d: Scan saw %d tuples, Len %d", step, n, r.Len())
		}
		for o, s := range r.byObj {
			if len(s) == 0 {
				t.Fatalf("step %d: empty index slice of %v", step, o)
			}
			var idx []string
			for _, sl := range s {
				idx = append(idx, r.names[sl.k.f]+"\x00"+string(sl.k.appendArgs(nil)))
			}
			want := heap[o]
			sort.Strings(want)
			if !slices.Equal(idx, want) {
				t.Fatalf("step %d: index of %v\n %q\nheap\n %q", step, o, idx, want)
			}
			delete(heap, o)
		}
		if len(heap) != 0 {
			t.Fatalf("step %d: heap tuples of objects missing from the index: %v", step, heap)
		}
		for _, o := range objs {
			var want []string
			for k := range model[o] {
				want = append(want, k)
			}
			sort.Strings(want)
			before := clock.Snapshot()
			got, err := r.Lookup(o)
			if err != nil {
				t.Fatal(err)
			}
			full := clock.Sub(before)
			var keys []string
			for _, tp := range got {
				keys = append(keys, tp.F+"\x00"+argKey(tp.Args))
			}
			if !slices.Equal(keys, want) {
				t.Fatalf("step %d: Lookup(%v) order\n %q\nwant\n %q", step, o, keys, want)
			}
			before = twinClock.Snapshot()
			lean, err := twin.lookupInto(nil, o)
			if err != nil {
				t.Fatal(err)
			}
			if d := twinClock.Sub(before); d != full {
				t.Fatalf("step %d: lookupInto(%v) charged %+v, Lookup %+v", step, o, d, full)
			}
			for i, tp := range lean {
				pred := strings.HasPrefix(tp.F, "p:")
				if tp.F != got[i].F || tp.argSuffix() != argKey(got[i].Args) || !pred && tp.Args != nil || pred && argKey(tp.Args) != argKey(got[i].Args) {
					t.Fatalf("step %d: lookupInto(%v)[%d] = %v, Lookup %v", step, o, i, tp, got[i])
				}
			}
			for _, f := range fids {
				if got, want := r.FctCount(o, f), fctCount(o, f); got != want {
					t.Fatalf("step %d: FctCount(%v, %s) = %d, want %d", step, o, f, got, want)
				}
			}
		}
	}

	for step := 0; step < 4000; step++ {
		o := objs[rng.Intn(len(objs))]
		f := fids[rng.Intn(len(fids))]
		args := combos[rng.Intn(len(combos))]
		k := f + "\x00" + argKey(args)
		_, present := model[o][k]
		if rng.Intn(5) < 3 {
			first := fctCount(o, f) == 0
			isNew, gotFirst, err := r.Insert(o, f, args)
			if err != nil {
				t.Fatal(err)
			}
			if n, fst, err := twin.Insert(o, f, args); n != isNew || fst != gotFirst || err != nil {
				t.Fatalf("step %d: twin Insert = %v, %v, %v", step, n, fst, err)
			}
			if isNew != !present || gotFirst != (!present && first) {
				t.Fatalf("step %d: Insert(%v, %s, %v) = %v, %v; present %v, first %v", step, o, f, args, isNew, gotFirst, present, first)
			}
			if model[o] == nil {
				model[o] = make(map[string]tuple)
			}
			model[o][k] = tuple{f, args}
		} else {
			existed, last, err := r.Remove(o, f, args)
			if err != nil {
				t.Fatal(err)
			}
			if ex, l, err := twin.Remove(o, f, args); ex != existed || l != last || err != nil {
				t.Fatalf("step %d: twin Remove = %v, %v, %v", step, ex, l, err)
			}
			delete(model[o], k)
			if existed != present || last != (present && fctCount(o, f) == 0) {
				t.Fatalf("step %d: Remove(%v, %s, %v) = %v, %v; present %v", step, o, f, args, existed, last, present)
			}
		}
		if step%250 == 249 {
			check(step)
		}
	}
	// Empty every object through the keys Lookup hands out, as
	// invalidation and forget_object do.
	for _, o := range objs {
		for _, rel := range []*RRR{r, twin} {
			got, err := rel.lookupInto(nil, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range got {
				if existed, _, err := rel.removeKey(o, tp.k); err != nil || !existed {
					t.Fatalf("removeKey(%v, %v) = %v, %v", o, tp, existed, err)
				}
			}
			if _, ok := rel.byObj[o]; ok {
				t.Fatalf("emptied %v stays in the index", o)
			}
		}
		delete(model, o)
	}
	check(-1)
	if r.Len() != 0 {
		t.Fatalf("%d tuples left", r.Len())
	}
}

// TestRRRScanStopsAtUndecodableTuple: a record that does not decode stops
// Scan with its error instead of being skipped, so a sweep that removes
// tuples (Drop, InvalidateAll, ReorganizeRRR) never acts on a partial view.
func TestRRRScanStopsAtUndecodableTuple(t *testing.T) {
	r := NewRRR(storage.NewPool(storage.NewDisk(storage.NewClock()), 4))
	if _, _, err := r.Insert(1, "f", []object.Value{object.Ref(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.heap.Insert([]byte{uint8(object.KList), 9}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	err := r.Scan(func(Tuple) bool { seen++; return true })
	if err == nil || seen != 1 {
		t.Fatalf("Scan over an undecodable record: %d tuples, err %v", seen, err)
	}
}
