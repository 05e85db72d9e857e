// Package mvcc holds the version state shared by the MVCC snapshot read
// path: a monotonically increasing stable version, a registry of reader
// pins, and a reader barrier for the few heavyweight operations that cannot
// be versioned (DDL, materialization, garbage collection, durability).
//
// The protocol is single-writer / multi-reader, matching the facade's
// exclusive write lock:
//
//   - Writers mutate in place while holding the exclusive Database lock.
//     Before the first mutation of a unit (page, object-directory entry,
//     GMR entry) in the current epoch, the pre-image is captured and tagged
//     with the current stable version — the state the tag names.
//   - At the end of every write operation the facade publishes: the stable
//     version is incremented, making the mutated state the new stable one,
//     and captures no pinned reader can reach are reclaimed.
//   - Readers pin the current stable version V and reconstruct the state at
//     V from the capture overlays: the capture with the smallest tag >= V
//     is exactly the state at V (nothing changed between V and the epoch
//     that captured it); no such capture means the unit is unchanged since
//     V and the live state serves.
//
// Chains (chain.go) is the one implementation of the capture overlays: the
// page, OID directory and GMR entry overlays all keep their pre-images in
// it, each under its own lock. The buffer pool owns the State; the layers
// built on the pool take it from there.
//
// Pins are cheap and short-lived (one query). Barrier operations block new
// pins and drain the active ones, then run with the engine to themselves.
package mvcc

import "sync"

// State is the shared version state. The zero value is NOT ready; use
// NewState.
type State struct {
	mu      sync.Mutex
	cond    *sync.Cond
	stable  uint64
	pins    map[uint64]int
	active  int
	barrier bool
}

// NewState returns a fresh state at stable version 0 with no pins.
func NewState() *State {
	s := &State{pins: make(map[uint64]int)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Stable returns the current stable (last published) version. Capture sites
// use it as the tag for pre-images taken during the current epoch.
func (s *State) Stable() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stable
}

// Pin registers a reader at the current stable version and returns it with
// a release function. Pin blocks while a barrier is active.
func (s *State) Pin() (uint64, func()) {
	s.mu.Lock()
	for s.barrier {
		s.cond.Wait()
	}
	v := s.stable
	s.pins[v]++
	s.active++
	s.mu.Unlock()
	var once sync.Once
	return v, func() { once.Do(func() { s.unpin(v) }) }
}

func (s *State) unpin(v uint64) {
	s.mu.Lock()
	if n := s.pins[v]; n <= 1 {
		delete(s.pins, v)
	} else {
		s.pins[v] = n - 1
	}
	s.active--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Publish increments the stable version — the writer's mutations become the
// published state — and returns the reclamation floor: the smallest pinned
// version, or the new stable version when no reader is pinned. Capture
// overlays may drop every pre-image tagged below the floor.
func (s *State) Publish() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stable++
	floor := s.stable
	for v := range s.pins {
		if v < floor {
			floor = v
		}
	}
	return floor
}

// BeginBarrier blocks new pins and waits until every active pin is
// released. The caller must pair it with EndBarrier and must not pin
// itself while the barrier is up.
func (s *State) BeginBarrier() {
	s.mu.Lock()
	for s.barrier {
		s.cond.Wait()
	}
	s.barrier = true
	for s.active > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// EndBarrier lifts the barrier and wakes blocked pinners.
func (s *State) EndBarrier() {
	s.mu.Lock()
	s.barrier = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Active returns the number of currently pinned readers (the zero-leaked-
// pins audit of the simulation harness).
func (s *State) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// PinnedVersions returns the distinct pinned versions, unordered. Intended
// for audits and tests.
func (s *State) PinnedVersions() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.pins))
	for v := range s.pins {
		out = append(out, v)
	}
	return out
}
