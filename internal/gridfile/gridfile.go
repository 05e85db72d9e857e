// Package gridfile implements a Grid File (Nievergelt, Hinterberger,
// Sevcik: "The Grid File: An Adaptable, Symmetric Multikey File Structure",
// ACM TODS 1984) — the multidimensional storage structure Section 3.3 of
// the paper considers for GMRs of low arity: a single symmetric index over
// the fields O1,...,On, f1,...,fm that supports exact-match and
// hyper-rectangle queries on any combination of dimensions.
//
// The implementation follows the classic design: per-dimension linear
// scales partition the key space into a grid; a directory maps each grid
// cell to a bucket; buckets split by refining one dimension's scale when
// they overflow, and cells may share buckets (the directory is allowed to
// be finer than the bucket partition). Buckets are persisted as records in
// a heap file so every access is charged to the simulated clock, matching
// the cost model of the rest of the system. As the paper notes, grid files
// degrade beyond three or four dimensions — New rejects higher arities, and
// the GMR manager falls back to conventional indexes there.
package gridfile

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"gomdb/internal/storage"
)

// MaxDims is the largest supported dimensionality (Section 3.3: grid files
// "are not well-suited to support more than three or four dimensions").
const MaxDims = 4

// bucketCapacity is the number of entries a bucket holds before splitting.
const bucketCapacity = 32

// Entry is one stored record: a key vector and an opaque payload.
type Entry struct {
	Key []float64
	Val any
}

// bucket is a leaf container. Several directory cells may point to the same
// bucket; region tracks the bucket's covering box in cell coordinates so
// splits can tell whether refining a dimension separates its contents.
type bucket struct {
	entries []Entry
	rid     storage.RID
}

// GridFile is a k-dimensional grid file.
type GridFile struct {
	k int
	// scales[d] holds the interior split points of dimension d, sorted.
	// Cell index i of dimension d covers [scales[d][i-1], scales[d][i]).
	scales [][]float64
	// dir maps flattened cell coordinates to bucket ids.
	dir []int
	// dims[d] = len(scales[d]) + 1 — the number of cells per dimension.
	dims    []int
	buckets []*bucket
	heap    *storage.HeapFile
	size    int
}

// New creates a k-dimensional grid file backed by pool.
func New(pool *storage.BufferPool, name string, k int) (*GridFile, error) {
	if k < 1 || k > MaxDims {
		return nil, fmt.Errorf("gridfile: %d dimensions unsupported (1..%d)", k, MaxDims)
	}
	g := &GridFile{
		k:      k,
		scales: make([][]float64, k),
		dims:   make([]int, k),
		heap:   storage.NewHeapFile(pool, "MDS:"+name),
	}
	for d := 0; d < k; d++ {
		g.dims[d] = 1
	}
	b := &bucket{}
	if err := g.writeBucket(b); err != nil {
		return nil, err
	}
	g.buckets = []*bucket{b}
	g.dir = []int{0}
	return g, nil
}

// Len returns the number of stored entries.
func (g *GridFile) Len() int { return g.size }

// Dims returns the dimensionality.
func (g *GridFile) Dims() int { return g.k }

// writeBucket persists a bucket's entries (payloads are not serialized —
// the record charges the I/O a real bucket write would; contents live in
// memory like the rest of the directory).
func (g *GridFile) writeBucket(b *bucket) error {
	rec := make([]byte, 8+len(b.entries)*8*g.k)
	binary.LittleEndian.PutUint64(rec, uint64(len(b.entries)))
	for i, e := range b.entries {
		for d, f := range e.Key {
			binary.LittleEndian.PutUint64(rec[8+(i*g.k+d)*8:], math.Float64bits(f))
		}
	}
	if b.rid.IsZero() {
		rid, err := g.heap.Insert(rec)
		if err != nil {
			return err
		}
		b.rid = rid
		return nil
	}
	rid, err := g.heap.Update(b.rid, rec)
	if err != nil {
		return err
	}
	b.rid = rid
	return nil
}

// touchBucket charges the read of a bucket page.
func (g *GridFile) touchBucket(b *bucket) {
	if !b.rid.IsZero() {
		_ = g.heap.View(b.rid, func([]byte) error { return nil })
	}
}

// cellOf returns the per-dimension cell coordinates of a key; keys equal to
// a split point belong to the upper cell.
func (g *GridFile) cellOf(key []float64) []int {
	cell := make([]int, g.k)
	for d := 0; d < g.k; d++ {
		cell[d] = upperCell(g.scales[d], key[d])
	}
	return cell
}

// upperCell places key in cell i such that scales[i-1] <= key < scales[i].
func upperCell(scales []float64, key float64) int {
	return sort.Search(len(scales), func(i int) bool { return key < scales[i] })
}

// flatten converts cell coordinates to a directory index.
func (g *GridFile) flatten(cell []int) int {
	idx := 0
	for d := 0; d < g.k; d++ {
		idx = idx*g.dims[d] + cell[d]
	}
	return idx
}

// Insert stores an entry. Duplicate keys are allowed.
func (g *GridFile) Insert(key []float64, val any) error {
	if len(key) != g.k {
		return fmt.Errorf("gridfile: key arity %d, want %d", len(key), g.k)
	}
	kcopy := append([]float64{}, key...)
	for {
		bi := g.dir[g.flatten(g.cellOf(kcopy))]
		b := g.buckets[bi]
		if len(b.entries) < bucketCapacity {
			b.entries = append(b.entries, Entry{Key: kcopy, Val: val})
			g.size++
			return g.writeBucket(b)
		}
		if err := g.split(bi); err != nil {
			return err
		}
	}
}

// split refines the grid to relieve an overflowing bucket. It picks the
// dimension with the widest spread of key values in the bucket, adds the
// median as a split point (doubling the directory along that dimension),
// and redistributes the bucket's entries into two buckets.
func (g *GridFile) split(bi int) error {
	b := g.buckets[bi]
	// Choose the dimension whose values differ most within the bucket.
	bestD, bestSpread := -1, 0.0
	var bestMid float64
	for d := 0; d < g.k; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, e := range b.entries {
			if e.Key[d] < lo {
				lo = e.Key[d]
			}
			if e.Key[d] > hi {
				hi = e.Key[d]
			}
		}
		if hi-lo > bestSpread {
			bestSpread = hi - lo
			bestD = d
			vals := make([]float64, len(b.entries))
			for i, e := range b.entries {
				vals[i] = e.Key[d]
			}
			sort.Float64s(vals)
			bestMid = vals[len(vals)/2]
			if bestMid == vals[0] {
				// Median equals the minimum (skew): use the midpoint so the
				// lower part is non-empty.
				bestMid = (vals[0] + vals[len(vals)-1]) / 2
			}
		}
	}
	if bestD < 0 {
		return fmt.Errorf("gridfile: bucket of %d identical keys exceeds capacity", len(b.entries))
	}
	g.refine(bestD, bestMid)
	// Redistribute: create a sibling bucket; entries >= mid move there.
	nb := &bucket{}
	var keep []Entry
	for _, e := range b.entries {
		if e.Key[bestD] >= bestMid {
			nb.entries = append(nb.entries, e)
		} else {
			keep = append(keep, e)
		}
	}
	b.entries = keep
	g.buckets = append(g.buckets, nb)
	nbi := len(g.buckets) - 1
	// Point every cell that (a) currently maps to b and (b) lies at or
	// above mid in dimension bestD to the new bucket.
	splitCell := upperCell(g.scales[bestD], bestMid)
	g.forEachCell(func(cell []int, idx int) {
		if g.dir[idx] == bi && cell[bestD] >= splitCell {
			g.dir[idx] = nbi
		}
	})
	if err := g.writeBucket(b); err != nil {
		return err
	}
	return g.writeBucket(nb)
}

// refine adds a split point to dimension d, rebuilding the directory with
// the new granularity (cells on both sides of the new boundary initially
// share their previous bucket).
func (g *GridFile) refine(d int, split float64) {
	// Insert into the scale (ignore exact duplicates).
	pos := sort.SearchFloat64s(g.scales[d], split)
	if pos < len(g.scales[d]) && g.scales[d][pos] == split {
		return
	}
	g.scales[d] = append(g.scales[d], 0)
	copy(g.scales[d][pos+1:], g.scales[d][pos:])
	g.scales[d][pos] = split

	oldDims := append([]int{}, g.dims...)
	oldDir := g.dir
	g.dims[d]++
	total := 1
	for _, n := range g.dims {
		total *= n
	}
	g.dir = make([]int, total)
	g.forEachCell(func(cell []int, idx int) {
		oldCell := append([]int{}, cell...)
		if oldCell[d] > pos {
			oldCell[d]--
		}
		oldIdx := 0
		for dd := 0; dd < g.k; dd++ {
			oldIdx = oldIdx*oldDims[dd] + oldCell[dd]
		}
		g.dir[idx] = oldDir[oldIdx]
	})
}

// forEachCell iterates every directory cell.
func (g *GridFile) forEachCell(fn func(cell []int, idx int)) {
	cell := make([]int, g.k)
	var rec func(d int)
	idx := 0
	rec = func(d int) {
		if d == g.k {
			fn(cell, idx)
			idx++
			return
		}
		for i := 0; i < g.dims[d]; i++ {
			cell[d] = i
			rec(d + 1)
		}
	}
	rec(0)
}

// Delete removes one entry matching key and predicate ok (nil matches any
// payload). It reports whether an entry was removed.
func (g *GridFile) Delete(key []float64, ok func(any) bool) (bool, error) {
	if len(key) != g.k {
		return false, fmt.Errorf("gridfile: key arity %d, want %d", len(key), g.k)
	}
	bi := g.dir[g.flatten(g.cellOf(key))]
	b := g.buckets[bi]
	for i, e := range b.entries {
		if keysEqual(e.Key, key) && (ok == nil || ok(e.Val)) {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			g.size--
			return true, g.writeBucket(b)
		}
	}
	return false, nil
}

func keysEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Range is a per-dimension search interval; the zero value (with Any=true)
// matches everything — the "don't care" of the paper's QBE-style retrieval
// table.
type Range struct {
	Lo, Hi float64
	Any    bool
}

// Exact returns the range matching only v.
func Exact(v float64) Range { return Range{Lo: v, Hi: v} }

// Between returns the inclusive range [lo, hi].
func Between(lo, hi float64) Range { return Range{Lo: lo, Hi: hi} }

// Any matches the whole dimension.
func Any() Range { return Range{Any: true} }

// Search calls fn for every entry inside the hyper-rectangle. Only buckets
// whose grid region intersects the query are visited (and charged).
func (g *GridFile) Search(q []Range, fn func(Entry) bool) error {
	if len(q) != g.k {
		return fmt.Errorf("gridfile: query arity %d, want %d", len(q), g.k)
	}
	// Cell windows per dimension.
	loCell := make([]int, g.k)
	hiCell := make([]int, g.k)
	for d := 0; d < g.k; d++ {
		if q[d].Any {
			loCell[d], hiCell[d] = 0, g.dims[d]-1
			continue
		}
		loCell[d] = upperCell(g.scales[d], q[d].Lo)
		hiCell[d] = upperCell(g.scales[d], q[d].Hi)
	}
	visited := make(map[int]bool)
	cell := make([]int, g.k)
	stop := false
	var rec func(d int) error
	rec = func(d int) error {
		if stop {
			return nil
		}
		if d == g.k {
			bi := g.dir[g.flatten(cell)]
			if visited[bi] {
				return nil
			}
			visited[bi] = true
			b := g.buckets[bi]
			g.touchBucket(b)
			for _, e := range b.entries {
				match := true
				for dd := 0; dd < g.k; dd++ {
					if q[dd].Any {
						continue
					}
					if e.Key[dd] < q[dd].Lo || e.Key[dd] > q[dd].Hi {
						match = false
						break
					}
				}
				if match && !fn(e) {
					stop = true
					return nil
				}
			}
			return nil
		}
		for i := loCell[d]; i <= hiCell[d]; i++ {
			cell[d] = i
			if err := rec(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// Stats describes the structure for diagnostics.
type Stats struct {
	Entries   int
	Buckets   int
	DirCells  int
	ScaleLens []int
}

// Describe returns structural statistics.
func (g *GridFile) Describe() Stats {
	s := Stats{Entries: g.size, Buckets: len(g.buckets), DirCells: len(g.dir)}
	for d := 0; d < g.k; d++ {
		s.ScaleLens = append(s.ScaleLens, len(g.scales[d]))
	}
	return s
}
