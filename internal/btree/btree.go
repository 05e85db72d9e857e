// Package btree implements an in-memory B+ tree keyed by (float64, uint64)
// composite keys. The GMR manager uses one tree per materialized result
// column to answer backward range queries (Section 3.2 of the paper): the
// float component is the materialized function result, the auxiliary
// component disambiguates distinct argument combinations that share a result
// value, so the tree behaves as a duplicate-tolerant secondary index.
package btree

import "fmt"

// Key is the composite search key of the tree. Keys are ordered first by F,
// then by Aux.
type Key struct {
	F   float64
	Aux uint64
}

// Less reports whether k orders strictly before other.
func (k Key) Less(other Key) bool {
	if k.F != other.F {
		return k.F < other.F
	}
	return k.Aux < other.Aux
}

// degree is the maximum number of children of an interior node. Leaves hold
// up to degree-1 keys. 32 keeps nodes small enough to stress the split and
// merge paths in tests while remaining shallow for realistic GMR sizes.
const degree = 32

const maxKeys = degree - 1

// maxDepth is the tree height Delete's descent stack holds without
// allocating. A split leaves both halves at least half full and deletion
// never merges, so a tree of height h once held at least (degree/2)^(h-1)
// keys: 16 levels are beyond any memory.
const maxDepth = 16

type node struct {
	leaf     bool
	keys     []Key
	vals     []any   // leaf only, parallel to keys
	children []*node // interior only, len(keys)+1
	next     *node   // leaf only: right sibling for range scans
}

// Tree is a B+ tree. The zero value is not usable; call New.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

// Get returns the value stored under key, if any.
func (t *Tree) Get(key Key) (any, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i := lowerBound(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return nil, false
}

// Insert stores value under key, replacing any previous value. It reports
// whether the key was newly inserted (false means replaced).
func (t *Tree) Insert(key Key, value any) bool {
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.splitChild(t.root, 0)
	}
	inserted := t.insertNonFull(t.root, key, value)
	if inserted {
		t.size++
	}
	return inserted
}

func (t *Tree) insertNonFull(n *node, key Key, value any) bool {
	for !n.leaf {
		i := childIndex(n.keys, key)
		if len(n.children[i].keys) == maxKeys {
			t.splitChild(n, i)
			// After the split the separator at i decides which side owns key.
			if !key.Less(n.keys[i]) {
				i++
			}
		}
		n = n.children[i]
	}
	i := lowerBound(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		n.vals[i] = value
		return false
	}
	n.keys = append(n.keys, Key{})
	n.vals = append(n.vals, nil)
	copy(n.keys[i+1:], n.keys[i:])
	copy(n.vals[i+1:], n.vals[i:])
	n.keys[i] = key
	n.vals[i] = value
	return true
}

// splitChild splits the full child at index i of parent p into two nodes and
// hoists a separator key into p.
func (t *Tree) splitChild(p *node, i int) {
	child := p.children[i]
	mid := maxKeys / 2
	right := &node{leaf: child.leaf}
	var sep Key
	if child.leaf {
		// B+ leaf split: the separator is copied, not moved; all keys stay
		// in the leaves, and the leaf chain is stitched.
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		child.keys = child.keys[:mid]
		child.vals = child.vals[:mid]
		right.next = child.next
		child.next = right
		sep = right.keys[0]
	} else {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}
	p.keys = append(p.keys, Key{})
	copy(p.keys[i+1:], p.keys[i:])
	p.keys[i] = sep
	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
}

// Delete removes key from the tree and reports whether it was present.
//
// Deletion uses lazy rebalancing: underflowing leaves are allowed (they never
// become empty except transiently) and empty nodes are compacted on the way
// down. This keeps the structure valid for all read operations while avoiding
// the full borrow/merge machinery; the tree is rebuilt by the GMR manager on
// bulk deletions anyway.
func (t *Tree) Delete(key Key) bool {
	n := t.root
	// The descent path lives on the stack: maxDepth levels cover any tree
	// that fits in memory, and a deeper one spills to the heap.
	var pbuf [maxDepth]*node
	var ibuf [maxDepth]int
	parents, idxs := pbuf[:0], ibuf[:0]
	for !n.leaf {
		i := childIndex(n.keys, key)
		parents = append(parents, n)
		idxs = append(idxs, i)
		n = n.children[i]
	}
	i := lowerBound(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	// Compact empty leaves out of their parents so scans skip no garbage.
	for len(n.keys) == 0 && len(parents) > 0 {
		p := parents[len(parents)-1]
		ci := idxs[len(idxs)-1]
		parents = parents[:len(parents)-1]
		idxs = idxs[:len(idxs)-1]
		if n.leaf {
			// Unlink from the leaf chain.
			if ci > 0 {
				p.children[ci-1].next = n.next
			} else if left := t.leftLeafSibling(n); left != nil {
				left.next = n.next
			}
		}
		p.children = append(p.children[:ci], p.children[ci+1:]...)
		if ci > 0 {
			p.keys = append(p.keys[:ci-1], p.keys[ci:]...)
		} else if len(p.keys) > 0 {
			p.keys = p.keys[1:]
		}
		n = p
		if len(p.children) > 0 {
			break
		}
	}
	// Collapse a root with a single child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true}
	}
	return true
}

// leftLeafSibling finds the leaf immediately preceding n in the chain by a
// full walk. Only used on the rare empty-leaf unlink path.
func (t *Tree) leftLeafSibling(n *node) *node {
	cur := t.leftmostLeaf()
	for cur != nil && cur.next != n {
		cur = cur.next
	}
	return cur
}

func (t *Tree) leftmostLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// Range calls fn for every entry with lo <= key.F <= hi in ascending order.
// Iteration stops early if fn returns false.
func (t *Tree) Range(lo, hi float64, fn func(Key, any) bool) {
	start := Key{F: lo, Aux: 0}
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, start)]
	}
	i := lowerBound(n.keys, start)
	for n != nil {
		for ; i < len(n.keys); i++ {
			k := n.keys[i]
			if k.F > hi {
				return
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Ascend calls fn for every entry in ascending key order.
func (t *Tree) Ascend(fn func(Key, any) bool) {
	n := t.leftmostLeaf()
	for n != nil {
		for i := range n.keys {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}

// Min returns the smallest key, if the tree is non-empty.
func (t *Tree) Min() (Key, bool) {
	n := t.leftmostLeaf()
	for n != nil {
		if len(n.keys) > 0 {
			return n.keys[0], true
		}
		n = n.next
	}
	return Key{}, false
}

// Max returns the largest key, if the tree is non-empty.
func (t *Tree) Max() (Key, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		return Key{}, false
	}
	return n.keys[len(n.keys)-1], true
}

// childIndex returns the index of the child subtree that may contain key:
// the count of separator keys <= key.
func childIndex(keys []Key, key Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if key.Less(keys[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// lowerBound returns the first index whose key is >= key.
func lowerBound(keys []Key, key Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid].Less(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Validate checks structural invariants and returns an error describing the
// first violation. Used by tests.
func (t *Tree) Validate() error {
	count := 0
	var prev *Key
	t.Ascend(func(k Key, _ any) bool {
		if prev != nil && !prev.Less(k) {
			panic(fmt.Sprintf("btree: keys out of order: %v then %v", *prev, k))
		}
		p := k
		prev = &p
		count++
		return true
	})
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d reachable keys", t.size, count)
	}
	return t.validateNode(t.root)
}

func (t *Tree) validateNode(n *node) error {
	if n.leaf {
		if len(n.keys) != len(n.vals) {
			return fmt.Errorf("btree: leaf keys/vals mismatch: %d vs %d", len(n.keys), len(n.vals))
		}
		return nil
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("btree: interior node has %d keys but %d children", len(n.keys), len(n.children))
	}
	for _, c := range n.children {
		if err := t.validateNode(c); err != nil {
			return err
		}
	}
	return nil
}
