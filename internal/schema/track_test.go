package schema_test

import (
	"maps"
	"slices"
	"testing"

	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// TestNestedTrackedEvaluations runs tracked evaluations inside a tracked
// evaluation, as a compensating action or a restriction predicate fired by a
// hook during a rematerialization does. Each nesting depth has its own
// reused recorder, so the inner evaluations — two at the same depth — get
// their own access sets, the outer one also sees what they read, and the
// outer set survives the reuse of the inner recorder.
func TestNestedTrackedEvaluations(t *testing.T) {
	en := newEngine(t)
	node := object.NewTupleType("Node",
		object.AttrDef{Name: "V", Type: "float", Public: true},
		object.AttrDef{Name: "Next", Type: "Node", Public: true})
	if err := en.Sch.DefineType(node, "val", "sum2"); err != nil {
		t.Fatal(err)
	}
	self := lang.Self()
	val := &lang.Function{
		Params: []lang.Param{lang.Prm("self", "Node")}, ResultType: "float", SideEffectFree: true,
		Body: []lang.Stmt{lang.Ret(lang.A(self, "V"))},
	}
	sum2 := &lang.Function{
		Params: []lang.Param{lang.Prm("self", "Node")}, ResultType: "float", SideEffectFree: true,
		Body: []lang.Stmt{lang.Ret(lang.Add(lang.A(self, "V"), lang.CallFn("Node.val", lang.A(self, "Next"))))},
	}
	if err := en.Sch.DefineOp("Node", "val", val); err != nil {
		t.Fatal(err)
	}
	if err := en.Sch.DefineOp("Node", "sum2", sum2); err != nil {
		t.Fatal(err)
	}
	create := func(v float64, next object.Value) object.OID {
		oid, err := en.Create("Node", []object.Value{object.Float(v), next})
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	b := create(2, object.Null())
	a := create(1, object.Ref(b))
	c := create(5, object.Null())

	// The hook on b.val evaluates val on c, then on a, both tracked: the
	// second reuses the first's recorder, so the first's results are copied
	// before it runs.
	var inner1, inner2 []object.OID
	var innerSet map[object.OID]struct{}
	en.Hooks.Install("Node", "val", &schema.UpdateHook{
		Before: func(en *schema.Engine, recv object.Recv, _ []object.Value) error {
			if recv.OID != b {
				return nil
			}
			_, set, order, err := en.EvalTrackedOrdered(val, []object.Value{object.Ref(c)})
			if err != nil {
				return err
			}
			inner1, innerSet = slices.Clone(order), maps.Clone(set)
			_, _, order, err = en.EvalTrackedOrdered(val, []object.Value{object.Ref(a)})
			inner2 = slices.Clone(order)
			return err
		},
	})
	v, set, order, err := en.EvalTrackedOrdered(sum2, []object.Value{object.Ref(a)})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(object.Float(3)) {
		t.Fatalf("sum2 = %v", v)
	}
	if !slices.Equal(inner1, []object.OID{c}) || len(innerSet) != 1 {
		t.Fatalf("first inner evaluation tracked %v (set %v), want [%v]", inner1, innerSet, c)
	}
	if !slices.Equal(inner2, []object.OID{a}) {
		t.Fatalf("second inner evaluation tracked %v, want [%v]", inner2, a)
	}
	// The outer evaluation saw a, then c through the hook, then b's body.
	if want := []object.OID{a, c, b}; !slices.Equal(order, want) || len(set) != len(want) {
		t.Fatalf("outer evaluation tracked %v (set %v), want %v", order, set, want)
	}
	for _, oid := range order {
		if _, ok := set[oid]; !ok {
			t.Fatalf("outer set %v misses %v", set, oid)
		}
	}
	if en.Tracking() {
		t.Fatal("tracking still active after the outer evaluation")
	}
	// The next evaluation at depth 0 starts from an empty recorder.
	_, set, order, err = en.EvalTrackedOrdered(val, []object.Value{object.Ref(c)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []object.OID{c}) || len(set) != 1 {
		t.Fatalf("reused recorder tracked %v (set %v), want [%v]", order, set, c)
	}
}
