package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

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
// machinery works to avoid — with an in-memory index on the O attribute (the
// access path every invalidation uses). The index holds, per object, the
// tuple keys in processing order (see tupleKey); the ObjDepFct markings of
// Section 5.2 follow from it, since an object's tuples of one function are
// neighbours in that order.
type RRR struct {
	heap *storage.HeapFile
	// byObj holds each object's tuples sorted by tupleKey.cmp, for every
	// object that has tuples. A slice that empties leaves the map for spare
	// (up to maxSpare of them), and the next object to get its first tuple
	// takes it, so the remove-then-reinsert of an immediate
	// rematerialization allocates nothing.
	byObj map[object.OID][]slot
	spare [][]slot
	// ids numbers the function ids the relation has seen; names maps a
	// number back. Numbers are in-memory only: the heap tuples carry F as a
	// string.
	ids   map[string]uint32
	names []string
	// wbuf is the write buffer a tuple record is built in, valid until the
	// next Insert.
	wbuf []byte
}

// tupleKey identifies one tuple of an object: its function, by number, and
// its argument combination. An all-reference combination of at most two
// arguments is held inline in a; any other is held as its encoding in enc,
// with n = -1. Every combination has exactly one form, so == is tuple
// equality.
type tupleKey struct {
	f   uint32
	n   int8
	a   [2]object.OID
	enc string
}

// maxSpare bounds the emptied index slices the RRR keeps for reuse.
const maxSpare = 64

// slot is one tuple of an object's index: its key and its record.
type slot struct {
	k   tupleKey
	rid storage.RID
}

// Tuple is one RRR tuple.
type Tuple struct {
	O object.OID
	F string
	// Args is the argument combination. Scan and Lookup decode it; the
	// invalidation path's lookup (lookupInto) decodes it only for predicate
	// tuples, the one kind whose processing needs the values.
	Args []object.Value

	// k is the index key the tuple was found under; removal and the GMR
	// entry probe use it instead of re-encoding the arguments.
	k tupleKey
}

// appendArgs appends the encoded argument combination — the GMR entry key
// the tuple addresses — to b.
func (k *tupleKey) appendArgs(b []byte) []byte {
	if k.n < 0 {
		return append(b, k.enc...)
	}
	for _, o := range k.a[:k.n] {
		b = binary.AppendUvarint(append(b, uint8(object.KRef)), uint64(o))
	}
	return b
}

// argSuffix returns the tuple's encoded argument combination as a string.
func (t Tuple) argSuffix() string {
	var b [keyBufSize]byte
	return string(t.k.appendArgs(b[:0]))
}

func (t Tuple) String() string {
	return fmt.Sprintf("[%v, %s, %v]", t.O, t.F, t.Args)
}

// NewRRR returns an empty relation backed by pool.
func NewRRR(pool *storage.BufferPool) *RRR {
	return &RRR{
		heap:  storage.NewHeapFile(pool, "RRR"),
		byObj: make(map[object.OID][]slot),
		ids:   make(map[string]uint32),
	}
}

// Len returns the number of tuples.
func (r *RRR) Len() int { return r.heap.Count() }

// intern returns f's number, assigning the next one on first sight.
func (r *RRR) intern(f string) uint32 {
	id, ok := r.ids[f]
	if !ok {
		id = uint32(len(r.names))
		r.ids[f] = id
		r.names = append(r.names, f)
	}
	return id
}

// keyOf builds the key of a tuple of function number f with args.
func keyOf(f uint32, args []object.Value) tupleKey {
	k := tupleKey{f: f, n: int8(len(args))}
	for i, a := range args {
		if i == len(k.a) || a.Kind != object.KRef {
			return tupleKey{f: f, n: -1, enc: argKey(args)}
		}
		k.a[i] = a.R
	}
	return k
}

// cmp orders keys as sort.Strings orders the relation keys F+"\x00"+args of
// their tuples: by function id, then by encoded arguments. Function ids hold
// no NUL byte, so the two orders agree. It is the order Lookup returns an
// object's tuples in, which fixes the page-access pattern of every
// invalidation.
func (r *RRR) cmp(x, y *tupleKey) int {
	if x.f != y.f {
		return strings.Compare(r.names[x.f], r.names[y.f])
	}
	var bx, by [keyBufSize]byte
	return bytes.Compare(x.appendArgs(bx[:0]), y.appendArgs(by[:0]))
}

// find returns the position of k in s, or where it would be inserted.
// (slices.BinarySearchFunc would move k to the heap through its callback.)
func (r *RRR) find(s []slot, k *tupleKey) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if r.cmp(&s[h].k, k) < 0 {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(s) && s[lo].k == *k
}

// soleOfFct reports whether the tuple at position i is its function's only
// one in s; s is sorted, so the function's tuples are neighbours.
func soleOfFct(s []slot, i int, f uint32) bool {
	return (i == 0 || s[i-1].k.f != f) && (i+1 >= len(s) || s[i+1].k.f != f)
}

// appendTuple appends [f, o, args] to b as a list value: a list's Kind byte,
// its length, then its elements.
func appendTuple(b []byte, o object.OID, f string, args []object.Value) []byte {
	b = append(b, uint8(object.KList))
	b = binary.AppendUvarint(b, uint64(2+len(args)))
	b = object.AppendValue(b, object.String_(f))
	b = object.AppendValue(b, object.Ref(o))
	return appendArgKey(b, args)
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
	k := keyOf(r.intern(f), args)
	s, ok := r.byObj[o]
	if n := len(r.spare); !ok && n > 0 {
		s, r.spare = r.spare[n-1], r.spare[:n-1]
	}
	i, dup := r.find(s, &k)
	if dup {
		return false, false, nil
	}
	r.wbuf = appendTuple(r.wbuf[:0], o, f, args)
	rid, err := r.heap.Insert(r.wbuf)
	if err != nil {
		return false, false, err
	}
	s = slices.Insert(s, i, slot{k, rid})
	r.byObj[o] = s
	return true, soleOfFct(s, i, k.f), nil
}

// Remove deletes [o, f, args]. It reports whether the tuple existed and
// whether it was the last tuple for the (o, f) pair — the signal to remove
// f from o's ObjDepFct.
func (r *RRR) Remove(o object.OID, f string, args []object.Value) (existed, lastForFct bool, err error) {
	id, ok := r.ids[f]
	if !ok {
		return false, false, nil
	}
	return r.removeKey(o, keyOf(id, args))
}

// removeKey is Remove by index key, for a tuple Lookup returned.
func (r *RRR) removeKey(o object.OID, k tupleKey) (existed, lastForFct bool, err error) {
	s := r.byObj[o]
	i, ok := r.find(s, &k)
	if !ok {
		return false, false, nil
	}
	if err := r.heap.Delete(s[i].rid); err != nil {
		return false, false, err
	}
	last := soleOfFct(s, i, k.f)
	if s = slices.Delete(s, i, i+1); len(s) > 0 {
		r.byObj[o] = s
		return true, last, nil
	}
	delete(r.byObj, o)
	if len(r.spare) < maxSpare {
		r.spare = append(r.spare, s)
	}
	return true, last, nil
}

// Lookup returns all tuples for object o, arguments decoded, reading each
// record through the buffer pool (the charged RRR lookup of the
// invalidation algorithms). A miss still probes one bucket page: finding
// out that no tuple exists is exactly the penalty Section 5.2's ObjDepFct
// marking avoids paying.
func (r *RRR) Lookup(o object.OID) ([]Tuple, error) {
	return r.lookup(nil, o, true)
}

// lookupInto is Lookup appending to dst, decoding the arguments of
// predicate tuples only; the other tuples are read as charged but not
// decoded, since their key names the GMR entry.
func (r *RRR) lookupInto(dst []Tuple, o object.OID) ([]Tuple, error) {
	return r.lookup(dst, o, false)
}

func (r *RRR) lookup(dst []Tuple, o object.OID, decodeAll bool) ([]Tuple, error) {
	s := r.byObj[o]
	if len(s) == 0 {
		return dst, r.heap.ProbePage(uint64(o) * 0x9e3779b97f4a7c15)
	}
	for _, sl := range s {
		t := Tuple{O: o, F: r.names[sl.k.f], k: sl.k}
		if decodeAll || strings.HasPrefix(t.F, "p:") {
			err := r.heap.View(sl.rid, func(rec []byte) error {
				d, err := decodeTuple(rec)
				t.Args = d.Args
				return err
			})
			if err != nil {
				return dst, err
			}
		} else if err := r.heap.Touch(sl.rid); err != nil {
			return dst, err
		}
		dst = append(dst, t)
	}
	return dst, nil
}

// FctCount returns the number of tuples for the (o, f) pair.
func (r *RRR) FctCount(o object.OID, f string) int {
	id, ok := r.ids[f]
	if !ok {
		return 0
	}
	n := 0
	for _, sl := range r.byObj[o] {
		if sl.k.f == id {
			n++
		}
	}
	return n
}

// Scan calls fn for every tuple in heap order; used by maintenance sweeps,
// tests and diagnostics. A record that does not decode stops the scan with
// its error.
func (r *RRR) Scan(fn func(Tuple) bool) error {
	var derr error
	err := r.heap.Scan(func(_ storage.RID, rec []byte) bool {
		t, err := decodeTuple(rec)
		if err != nil {
			derr = err
			return false
		}
		if id, ok := r.ids[t.F]; ok {
			t.k = keyOf(id, t.Args)
		}
		return fn(t)
	})
	if err != nil {
		return err
	}
	return derr
}
