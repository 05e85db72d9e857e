package mvcc

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

// TestChainsOracle runs random sequences of capture-and-mutate, publish,
// pin, release and reclaim over a few units against a naive oracle that
// keeps every unit's full state at every published version. After every
// step, each pinned reader must reconstruct exactly the state published at
// its version, the capture count must equal the captures the oracle says
// are reachable, and a drop callback must see every trimmed capture.
func TestChainsOracle(t *testing.T) {
	const units = 5
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewState()
		var c Chains[int, int]
		live := make([]int, units)
		// hist[v] is the state published at version v.
		hist := map[uint64][]int{0: append([]int(nil), live...)}
		// tags[u] lists the tags of unit u's captures the oracle holds.
		tags := make([][]uint64, units)
		type pin struct {
			ver     uint64
			release func()
		}
		var pins []pin
		floor, next := uint64(0), 1
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // a write: capture the pre-image, then mutate
				u := rng.Intn(units)
				stable := st.Stable()
				if p := c.Capture(u, stable); p != nil {
					if n := len(tags[u]); n > 0 && tags[u][n-1] == stable {
						t.Fatalf("seed %d step %d: unit %d captured twice at tag %d", seed, step, u, stable)
					}
					*p = live[u]
					tags[u] = append(tags[u], stable)
				} else if n := len(tags[u]); n == 0 || tags[u][n-1] != stable {
					t.Fatalf("seed %d step %d: unit %d not captured in epoch %d", seed, step, u, stable)
				}
				live[u] = next
				next++
			case op < 7: // publish
				floor = st.Publish()
				hist[st.Stable()] = append([]int(nil), live...)
			case op < 8:
				v, release := st.Pin()
				pins = append(pins, pin{v, release})
			case op < 9:
				if len(pins) > 0 {
					i := rng.Intn(len(pins))
					pins[i].release()
					pins = append(pins[:i], pins[i+1:]...)
				}
			default: // reclaim at the last publish's floor
				dropped, trimmed := 0, 0
				c.Reclaim(floor, func(int) { dropped++ })
				for u := range tags {
					j := 0
					for j < len(tags[u]) && tags[u][j] < floor {
						j++
					}
					trimmed += j
					tags[u] = tags[u][j:]
				}
				if dropped != trimmed {
					t.Fatalf("seed %d step %d: drop saw %d captures, %d were trimmed", seed, step, dropped, trimmed)
				}
			}
			held := 0
			for u := range tags {
				held += len(tags[u])
			}
			if c.Len() != held {
				t.Fatalf("seed %d step %d: Len = %d, oracle holds %d", seed, step, c.Len(), held)
			}
			for _, p := range pins {
				for u := 0; u < units; u++ {
					got, ok := c.At(u, p.ver)
					if !ok {
						got = live[u]
					}
					if want := hist[p.ver][u]; got != want {
						t.Fatalf("seed %d step %d: unit %d at v%d = %d, published %d", seed, step, u, p.ver, got, want)
					}
				}
			}
		}
		for _, p := range pins {
			p.release()
		}
		c.Reclaim(st.Publish(), nil)
		if c.Len() != 0 || len(c.Keys(nil)) != 0 {
			t.Fatalf("seed %d: %d captures on %d units survive with no reader pinned", seed, c.Len(), len(c.Keys(nil)))
		}
	}
}

// TestChainsCaptureReclaimAllocatesNothing runs the writer's steady state:
// capture a few units, publish, reclaim. Emptied chains are reused.
func TestChainsCaptureReclaimAllocatesNothing(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st := NewState()
	var c Chains[uint64, [4]uint64]
	cycle := func() {
		for u := uint64(0); u < 8; u++ {
			if p := c.Capture(u, st.Stable()); p != nil {
				p[0] = u
			}
		}
		c.Reclaim(st.Publish(), nil)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a capture and reclaim cycle allocates %v times, want 0", n)
	}
	if c.Len() != 0 {
		t.Fatalf("%d captures survive with no reader pinned", c.Len())
	}
}

// TestChainsBurstReleasesMap: once a burst of more than burst units is
// reclaimed, the map goes with it, and the Chains works as before.
func TestChainsBurstReleasesMap(t *testing.T) {
	st := NewState()
	var c Chains[int, int]
	for u := 0; u <= burst; u++ {
		*c.Capture(u, st.Stable()) = u
	}
	c.Reclaim(st.Publish(), nil)
	if c.m != nil || c.Len() != 0 || len(c.spare) != burst {
		t.Fatalf("after a reclaimed burst: map %v, %d captures, %d spare chains", c.m != nil, c.Len(), len(c.spare))
	}
	v, release := st.Pin()
	defer release()
	*c.Capture(7, st.Stable()) = 70
	if got, ok := c.At(7, v); !ok || got != 70 {
		t.Fatalf("At = %d, %v after the burst; want 70, true", got, ok)
	}
}

func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
