package bench

import "testing"

// TestUpdatesBurstProperties runs the burst-update suite at short scale and
// pins its headline properties: deferred coalescing beats immediate by >= 2x
// simulated cost once bursts reach 4 updates per object, and the queue
// actually coalesced work.
func TestUpdatesBurstProperties(t *testing.T) {
	rep, fig, err := Updates(ShortScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("%d series, want 3", len(fig.Series))
	}
	byName := map[string][]UpdatesPoint{}
	for _, s := range rep.Strategies {
		byName[s.Name] = s.Points
	}
	for i, pt := range byName["Deferred"] {
		if pt.PerObject < 4 {
			continue
		}
		imm := byName["Immediate"][i].SimSeconds
		if imm < 2*pt.SimSeconds {
			t.Errorf("perObj=%d: immediate %.2fs is not >= 2x deferred %.2fs",
				pt.PerObject, imm, pt.SimSeconds)
		}
	}
	if rep.CoalescedUpdates == 0 || rep.Flushes == 0 || rep.QueueHighWater == 0 {
		t.Errorf("queue statistics not exercised: %+v", rep)
	}
}
