package schema_test

import (
	"runtime/debug"
	"testing"

	"gomdb/internal/object"
	"gomdb/internal/schema"
)

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

// TestSetAttrAllocations: an update of a type without hooks edits its record
// and allocates nothing; a hooked one reads the receiver once and hands
// every hook call of the update the same argument slice.
func TestSetAttrAllocations(t *testing.T) {
	en := newEngine(t)
	defineShape(t, en, false)
	s := newShape(t, en, 1, 2)
	so, _ := en.Objs.Get(s)
	p := so.Attrs[0].R
	x := 0.0
	set := func() {
		x++
		if err := en.SetAttrByName(p, "X", object.Float(x)); err != nil {
			t.Fatal(err)
		}
	}
	if !raceEnabled() {
		if n := testing.AllocsPerRun(100, set); n != 0 {
			t.Errorf("an unhooked SetAttr allocates %v times, want 0", n)
		}
	}
	var seen [][]object.Value
	hook := func(_ *schema.Engine, _ object.Recv, args []object.Value) error {
		seen = append(seen, args)
		return nil
	}
	for i := 0; i < 2; i++ {
		defer en.Hooks.Install("Point", "set_X", &schema.UpdateHook{Before: hook, After: hook})()
	}
	reads := en.Objs.Reads
	set()
	if n := en.Objs.Reads - reads; n != 1 {
		t.Fatalf("a hooked SetAttr read the receiver %d times, want 1", n)
	}
	if len(seen) != 4 {
		t.Fatalf("%d hook calls, want 4", len(seen))
	}
	for _, args := range seen {
		if &args[0] != &seen[0][0] || args[0].F != x {
			t.Fatalf("hook calls were handed %v, want one shared [%v]", seen, x)
		}
	}
	if v, err := en.Objs.ReadAttr(p, "X"); err != nil || v.F != x {
		t.Fatalf("X = %v (%v), want %v", v, err, x)
	}
}
