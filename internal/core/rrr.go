package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"gomdb/internal/object"
	"gomdb/internal/storage"
)

// RRR is the Reverse Reference Relation of Definition 4.1: tuples
// [O : OID, F : FunctionId, A : <OID>] recording that object O was accessed
// during the materialization of F with argument list A. References in the
// object base are unidirectional, so this relation is the only way to find
// the materialized results an updated object influences.
//
// Tuples are stored in a paged heap file — an RRR lookup therefore costs
// page I/O, which is exactly the update penalty the paper's Section 5
// machinery works to avoid — with an in-memory hash index on the O
// attribute (the access path every invalidation uses) and a per-(O,F)
// counter that keeps the ObjDepFct markings of Section 5.2 consistent with
// the relation.
type RRR struct {
	heap  *storage.HeapFile
	byObj map[object.OID]map[string]storage.RID
	dep   map[depKey]int
	// wbuf is the write buffer a tuple record is built in, valid until the
	// next Insert.
	wbuf []byte
}

type depKey struct {
	O object.OID
	F string
}

// Tuple is one decoded RRR tuple.
type Tuple struct {
	O    object.OID
	F    string
	Args []object.Value

	// key is the encoded relation key the tuple was found under, filled by
	// Lookup (where it is the map key, i.e. free). Invalidation processes
	// every looked-up tuple at least once more — to remove it, or to address
	// the GMR entry it names — and carrying the key avoids re-encoding the
	// argument combination for each of those steps.
	key string
}

// argSuffix returns the encoded argument-combination key of the tuple — the
// GMR entry key its invalidation addresses — reusing the stored relation key
// when present instead of re-encoding the arguments.
func (t Tuple) argSuffix() string {
	if t.key != "" {
		return t.key[len(t.F)+1:]
	}
	return argKey(t.Args)
}

func (t Tuple) String() string {
	return fmt.Sprintf("[%v, %s, %v]", t.O, t.F, t.Args)
}

// NewRRR returns an empty relation backed by pool.
func NewRRR(pool *storage.BufferPool) *RRR {
	return &RRR{
		heap:  storage.NewHeapFile(pool, "RRR"),
		byObj: make(map[object.OID]map[string]storage.RID),
		dep:   make(map[depKey]int),
	}
}

// Len returns the number of tuples.
func (r *RRR) Len() int { return r.heap.Count() }

func rrrKey(f string, args []object.Value) string {
	var b [keyBufSize]byte
	return string(appendArgKey(append(append(b[:0], f...), 0), args))
}

// appendTuple appends t to b as the list value [F, O, Args...], written
// straight from its parts: a list's Kind byte, its length, then its
// elements.
func appendTuple(b []byte, t Tuple) []byte {
	b = append(b, uint8(object.KList))
	b = binary.AppendUvarint(b, uint64(2+len(t.Args)))
	b = object.AppendValue(b, object.String_(t.F))
	b = object.AppendValue(b, object.Ref(t.O))
	return appendArgKey(b, t.Args)
}

func decodeTuple(buf []byte) (Tuple, error) {
	d := object.NewDecoder(buf)
	v := d.Value()
	if err := d.Err(); err != nil {
		return Tuple{}, err
	}
	if v.Kind != object.KList || len(v.Elems) < 2 {
		return Tuple{}, fmt.Errorf("core: malformed RRR tuple %v", v)
	}
	return Tuple{
		F:    v.Elems[0].S,
		O:    v.Elems[1].R,
		Args: v.Elems[2:],
	}, nil
}

// Insert adds [o, f, args] if not present (the "if not present" of the
// immediate(o) algorithm's step 3). It reports whether the tuple was new and
// whether it is the first tuple for the (o, f) pair — the signal to add f to
// o's ObjDepFct.
func (r *RRR) Insert(o object.OID, f string, args []object.Value) (isNew, firstForFct bool, err error) {
	m := r.byObj[o]
	if m == nil {
		m = make(map[string]storage.RID)
		r.byObj[o] = m
	}
	k := rrrKey(f, args)
	if _, dup := m[k]; dup {
		return false, false, nil
	}
	r.wbuf = appendTuple(r.wbuf[:0], Tuple{O: o, F: f, Args: args})
	rid, err := r.heap.Insert(r.wbuf)
	if err != nil {
		return false, false, err
	}
	m[k] = rid
	dk := depKey{o, f}
	r.dep[dk]++
	return true, r.dep[dk] == 1, nil
}

// Remove deletes [o, f, args]. It reports whether the tuple existed and
// whether it was the last tuple for the (o, f) pair — the signal to remove
// f from o's ObjDepFct.
func (r *RRR) Remove(o object.OID, f string, args []object.Value) (existed, lastForFct bool, err error) {
	return r.RemoveByKey(o, f, rrrKey(f, args))
}

// RemoveByKey is Remove for a caller that already holds the encoded relation
// key (a Tuple returned by Lookup), sparing the re-encoding of the argument
// combination.
func (r *RRR) RemoveByKey(o object.OID, f, k string) (existed, lastForFct bool, err error) {
	m := r.byObj[o]
	rid, ok := m[k]
	if !ok {
		return false, false, nil
	}
	if err := r.heap.Delete(rid); err != nil {
		return false, false, err
	}
	delete(m, k)
	if len(m) == 0 {
		delete(r.byObj, o)
	}
	dk := depKey{o, f}
	r.dep[dk]--
	last := r.dep[dk] == 0
	if last {
		delete(r.dep, dk)
	}
	return true, last, nil
}

// Lookup returns all tuples for object o, reading each record through the
// buffer pool (the charged RRR lookup of the invalidation algorithms). A
// miss still probes one bucket page: finding out that no tuple exists is
// exactly the penalty Section 5.2's ObjDepFct marking avoids paying.
func (r *RRR) Lookup(o object.OID) ([]Tuple, error) {
	m := r.byObj[o]
	if len(m) == 0 {
		if err := r.heap.ProbePage(uint64(o) * 0x9e3779b97f4a7c15); err != nil {
			return nil, err
		}
		return nil, nil
	}
	// Deterministic processing order: map iteration order would make the
	// physical page-access pattern (and thus the simulated benchmarks)
	// vary from run to run.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, 0, len(m))
	for _, k := range keys {
		var t Tuple
		err := r.heap.View(m[k], func(rec []byte) (err error) {
			t, err = decodeTuple(rec)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.key = k
		out = append(out, t)
	}
	return out, nil
}

// FctCount returns the number of tuples for the (o, f) pair.
func (r *RRR) FctCount(o object.OID, f string) int { return r.dep[depKey{o, f}] }

// Scan calls fn for every tuple; used by tests and diagnostics.
func (r *RRR) Scan(fn func(Tuple) bool) error {
	return r.heap.Scan(func(_ storage.RID, rec []byte) bool {
		t, err := decodeTuple(rec)
		if err != nil {
			return true
		}
		return fn(t)
	})
}
