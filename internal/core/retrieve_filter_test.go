package core

import (
	"testing"

	"gomdb/internal/lang"
	"gomdb/internal/object"
)

// TestRetrieveFilter pins the row filter shared by the live and snapshot
// Retrieve paths on a GMR with one argument column and two result columns.
func TestRetrieveFilter(t *testing.T) {
	g := &GMR{Name: "<<f,g>>", ArgTypes: []string{"T"}, Funcs: make([]*lang.Function, 2)}
	args := []object.Value{object.Ref(42)}
	results := []object.Value{object.Float(2.5), object.String_("blue")}
	free := AnySpec()
	cases := []struct {
		name string
		spec []FieldSpec
		want bool
	}{
		{"unconstrained", []FieldSpec{free, free, free}, true},
		{"exact ref", []FieldSpec{ExactSpec(object.Ref(42)), free, free}, true},
		{"exact other ref", []FieldSpec{ExactSpec(object.Ref(43)), free, free}, false},
		{"ref range as float", []FieldSpec{RangeSpec(40, 42), free, free}, true},
		{"ref below range", []FieldSpec{RangeSpec(43, 50), free, free}, false},
		{"result range", []FieldSpec{free, RangeSpec(2, 3), free}, true},
		{"result above range", []FieldSpec{free, RangeSpec(0, 2), free}, false},
		{"exact int against float", []FieldSpec{free, ExactSpec(object.Int(2)), free}, false},
		{"exact float", []FieldSpec{free, ExactSpec(object.Float(2.5)), free}, true},
		{"exact string", []FieldSpec{free, free, ExactSpec(object.String_("blue"))}, true},
		{"range on string", []FieldSpec{free, free, RangeSpec(-1e308, 1e308)}, false},
		{"every column", []FieldSpec{ExactSpec(object.Ref(42)), RangeSpec(2.5, 2.5), ExactSpec(object.String_("blue"))}, true},
	}
	for _, c := range cases {
		match, err := retrieveFilter(g, c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := match(args, results); got != c.want {
			t.Errorf("%s: match = %v, want %v", c.name, got, c.want)
		}
	}
	if _, err := retrieveFilter(g, []FieldSpec{free, free}); err == nil {
		t.Error("a spec with too few columns was accepted")
	}
}
