package mvcc

import "sort"

// Chains holds the version chains of a set of units — pages, OID directory
// entries or GMR entries: for each unit, the pre-images the writer captured,
// oldest first, each tagged with the stable version current when it was
// captured. It is the one implementation of the tag rule:
//
//   - Capture: the writer captures a unit at most once per epoch, tagged
//     with the current stable version S, meaning "this was the unit's state
//     at every version <= S".
//   - At: a reader pinned at v gets the capture with the smallest tag >= v;
//     when there is none the unit has not changed since v and the live unit
//     serves.
//   - Reclaim: captures tagged below the reclamation floor are unreachable
//     and are trimmed in place. Emptied chains keep their capacity for the
//     next unit captured, so a steady capture → reclaim cycle allocates
//     nothing; a burst of more than burst units (a materialization, a bulk
//     load) gives its memory back once reclaimed, so later sweeps do not
//     walk the burst's empty map.
//
// The zero value is ready to use. Chains is not synchronized: each overlay
// guards it with its own lock.
type Chains[K comparable, T any] struct {
	m map[K][]capture[T]
	// peak is the most units m has held since it was made.
	peak int
	// spare holds emptied chains for reuse, at most burst of them.
	spare [][]capture[T]
	n     int
}

type capture[T any] struct {
	ver uint64
	val T
}

// burst bounds what an emptied Chains keeps for reuse: at most burst spare
// chains, and its map only if it never held more than burst units.
const burst = 1024

// Capture reserves unit k's capture for the epoch whose pre-state is stable
// and returns it for the caller to fill with the unit's pre-image; it
// returns nil when the epoch has already captured k. The pointer is valid
// until the next call on c.
func (c *Chains[K, T]) Capture(k K, stable uint64) *T {
	caps, ok := c.m[k]
	if n := len(caps); n > 0 && caps[n-1].ver >= stable {
		return nil
	}
	if !ok {
		if c.m == nil {
			c.m = make(map[K][]capture[T])
		}
		if n := len(c.spare); n > 0 {
			caps = c.spare[n-1]
			c.spare = c.spare[:n-1]
		}
	}
	caps = append(caps, capture[T]{ver: stable})
	c.m[k] = caps
	c.peak = max(c.peak, len(c.m))
	c.n++
	return &caps[len(caps)-1].val
}

// At returns unit k's state as of version v: the capture with the smallest
// tag >= v and true, or false when no capture covers v and the live unit
// serves.
func (c *Chains[K, T]) At(k K, v uint64) (T, bool) {
	caps := c.m[k]
	i := sort.Search(len(caps), func(i int) bool { return caps[i].ver >= v })
	if i == len(caps) {
		var zero T
		return zero, false
	}
	return caps[i].val, true
}

// Reclaim trims every capture tagged below floor, which no pinned reader
// can reach, handing each trimmed value to drop when drop is non-nil (to
// recycle buffers).
func (c *Chains[K, T]) Reclaim(floor uint64, drop func(T)) {
	if c.n == 0 {
		return
	}
	for k, caps := range c.m {
		j := 0
		for j < len(caps) && caps[j].ver < floor {
			if drop != nil {
				drop(caps[j].val)
			}
			j++
		}
		if j == 0 {
			continue
		}
		c.n -= j
		n := copy(caps, caps[j:])
		clear(caps[n:])
		if n > 0 {
			c.m[k] = caps[:n]
			continue
		}
		delete(c.m, k)
		if len(c.spare) < burst {
			c.spare = append(c.spare, caps[:0])
		}
	}
	if c.n == 0 && c.peak > burst {
		c.m, c.peak = nil, 0
	}
}

// Len returns the number of captures held.
func (c *Chains[K, T]) Len() int { return c.n }

// Keys appends the units holding captures to out, in no particular order.
func (c *Chains[K, T]) Keys(out []K) []K {
	for k := range c.m {
		out = append(out, k)
	}
	return out
}
