package schema_test

import (
	"testing"

	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
	"gomdb/internal/storage"
)

func newEngine(t *testing.T) *schema.Engine {
	t.Helper()
	clock := storage.NewClock()
	disk := storage.NewDisk(clock)
	pool := storage.NewPool(disk, 50)
	sch := schema.New()
	objs := object.NewManager(sch.Reg, pool, clock)
	return schema.NewEngine(sch, objs, clock)
}

func defineShape(t *testing.T, en *schema.Engine, encapsulated bool) {
	t.Helper()
	sch := en.Sch
	point := object.NewTupleType("Point",
		object.AttrDef{Name: "X", Type: "float", Public: !encapsulated},
		object.AttrDef{Name: "Y", Type: "float", Public: !encapsulated})
	if err := sch.DefineType(point, "norm2", "move"); err != nil {
		t.Fatal(err)
	}
	shape := object.NewTupleType("Shape",
		object.AttrDef{Name: "P", Type: "Point"},
		object.AttrDef{Name: "Tag", Type: "string", Public: true})
	shape.StrictEncapsulated = encapsulated
	if err := sch.DefineType(shape, "size", "grow"); err != nil {
		t.Fatal(err)
	}
	norm2 := &lang.Function{
		Params:         []lang.Param{lang.Prm("self", "Point")},
		ResultType:     "float",
		SideEffectFree: true,
		Body: []lang.Stmt{lang.Ret(lang.Add(
			lang.Mul(lang.A(lang.Self(), "X"), lang.A(lang.Self(), "X")),
			lang.Mul(lang.A(lang.Self(), "Y"), lang.A(lang.Self(), "Y"))))},
	}
	if err := sch.DefineOp("Point", "norm2", norm2); err != nil {
		t.Fatal(err)
	}
	move := &lang.Function{
		Params: []lang.Param{lang.Prm("self", "Point"), lang.Prm("d", "float")},
		Body: []lang.Stmt{
			lang.SetA(lang.Self(), "X", lang.Add(lang.A(lang.Self(), "X"), lang.V("d"))),
			lang.SetA(lang.Self(), "Y", lang.Add(lang.A(lang.Self(), "Y"), lang.V("d"))),
		},
	}
	if err := sch.DefineOp("Point", "move", move); err != nil {
		t.Fatal(err)
	}
	size := &lang.Function{
		Params:         []lang.Param{lang.Prm("self", "Shape")},
		ResultType:     "float",
		SideEffectFree: true,
		Body:           []lang.Stmt{lang.Ret(lang.CallFn("Point.norm2", lang.A(lang.Self(), "P")))},
	}
	if err := sch.DefineOp("Shape", "size", size); err != nil {
		t.Fatal(err)
	}
	grow := &lang.Function{
		Params: []lang.Param{lang.Prm("self", "Shape"), lang.Prm("d", "float")},
		Body:   []lang.Stmt{lang.Do(lang.CallFn("Point.move", lang.A(lang.Self(), "P"), lang.V("d")))},
	}
	if err := sch.DefineOp("Shape", "grow", grow); err != nil {
		t.Fatal(err)
	}
	if encapsulated {
		sch.DeclareInvalidatedFct("Shape", "grow", "Shape.size")
	}
}

func newShape(t *testing.T, en *schema.Engine, x, y float64) object.OID {
	t.Helper()
	p, err := en.Create("Point", []object.Value{object.Float(x), object.Float(y)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := en.Create("Shape", []object.Value{object.Ref(p), object.String_("s")})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaDefinitionErrors(t *testing.T) {
	en := newEngine(t)
	defineShape(t, en, false)
	sch := en.Sch
	if err := sch.DefineOp("Nope", "f", &lang.Function{Params: []lang.Param{lang.Prm("self", "Nope")}}); err == nil {
		t.Fatal("op on unknown type accepted")
	}
	if err := sch.DefineOp("Point", "norm2", &lang.Function{Params: []lang.Param{lang.Prm("self", "Point")}}); err == nil {
		t.Fatal("duplicate op accepted")
	}
	if err := sch.DefineOp("Point", "zzz", &lang.Function{}); err == nil {
		t.Fatal("op without receiver accepted")
	}
	if err := sch.DefineFunc(&lang.Function{Name: "Point.bad"}); err == nil {
		t.Fatal("qualified free function accepted")
	}
	if err := sch.DefineFunc(&lang.Function{Name: "free1"}); err != nil {
		t.Fatal(err)
	}
	if err := sch.DefineFunc(&lang.Function{Name: "free1"}); err == nil {
		t.Fatal("duplicate free function accepted")
	}
}

func TestResolutionAndPublicClause(t *testing.T) {
	en := newEngine(t)
	defineShape(t, en, false)
	sch := en.Sch
	if _, ok := sch.ResolveOp("Shape", "size"); !ok {
		t.Fatal("size not resolved")
	}
	if _, ok := sch.ResolveStatic("Shape.size"); !ok {
		t.Fatal("qualified resolution failed")
	}
	if _, ok := sch.ResolveStatic("free_missing"); ok {
		t.Fatal("missing free function resolved")
	}
	if !sch.IsPublic("Point", "X") || !sch.IsPublic("Point", "set_X") {
		t.Fatal("public attribute ops missing")
	}
	if !sch.IsPublic("Shape", "size") || sch.IsPublic("Shape", "P") {
		t.Fatal("public clause wrong")
	}
	// lang.TypeInfo implementation.
	if at, ok := sch.AttrType("Shape", "P"); !ok || at != "Point" {
		t.Fatalf("AttrType = %v, %v", at, ok)
	}
	if _, ok := sch.AttrType("Shape", "Q"); ok {
		t.Fatal("missing attribute resolved")
	}
}

func TestInheritedOperationDispatch(t *testing.T) {
	en := newEngine(t)
	defineShape(t, en, false)
	sch := en.Sch
	sub := object.NewTupleType("Square", object.AttrDef{Name: "Side", Type: "float", Public: true})
	sub.Super = "Shape"
	if err := sch.DefineType(sub); err != nil {
		t.Fatal(err)
	}
	// Override size on Square.
	size2 := &lang.Function{
		Params:         []lang.Param{lang.Prm("self", "Square")},
		ResultType:     "float",
		SideEffectFree: true,
		Body:           []lang.Stmt{lang.Ret(lang.Mul(lang.A(lang.Self(), "Side"), lang.A(lang.Self(), "Side")))},
	}
	if err := sch.DefineOp("Square", "size", size2); err != nil {
		t.Fatal(err)
	}
	p, _ := en.Create("Point", []object.Value{object.Float(3), object.Float(4)})
	sq, err := en.Create("Square", []object.Value{object.Ref(p), object.String_("sq"), object.Float(6)})
	if err != nil {
		t.Fatal(err)
	}
	// Declared type Shape, dynamic type Square: the override must win.
	v, err := en.CallFunction("Shape.size", []object.Value{object.Ref(sq)})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(object.Float(36)) {
		t.Fatalf("dispatched size = %v, want 36", v)
	}
	// Inherited op: grow resolves on Square via the supertype.
	if _, err := en.CallFunction("Square.grow", []object.Value{object.Ref(sq), object.Float(1)}); err != nil {
		t.Fatalf("inherited grow: %v", err)
	}
}

func TestUpdateHookOrderAndUninstall(t *testing.T) {
	en := newEngine(t)
	defineShape(t, en, false)
	s := newShape(t, en, 1, 2)
	so, _ := en.Objs.Get(s)
	p := so.Attrs[0].R

	var events []string
	undo := en.Hooks.Install("Point", "set_X", &schema.UpdateHook{
		Name: "t",
		Before: func(en *schema.Engine, recv object.Recv, args []object.Value) error {
			// Before must observe the pre-update state.
			if x, err := en.ReadAttr(object.Ref(recv.OID), "X"); err != nil || x.F != 1 {
				t.Errorf("before-hook sees X=%v (%v), want 1", x, err)
			}
			events = append(events, "before")
			return nil
		},
		After: func(en *schema.Engine, recv object.Recv, args []object.Value) error {
			if x, err := en.ReadAttr(object.Ref(recv.OID), "X"); err != nil || x.F != 42 {
				t.Errorf("after-hook sees X=%v (%v), want 42", x, err)
			}
			events = append(events, "after")
			return nil
		},
	})
	if err := en.SetAttrByName(p, "X", object.Float(42)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != "before" || events[1] != "after" {
		t.Fatalf("hook order = %v", events)
	}
	if !en.Hooks.Installed("Point", "set_X") {
		t.Fatal("Installed = false")
	}
	undo()
	if en.Hooks.Installed("Point", "set_X") {
		t.Fatal("hook survived uninstall")
	}
	events = nil
	if err := en.SetAttrByName(p, "X", object.Float(1)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatal("uninstalled hook fired")
	}
}

func TestPublicOpHooks(t *testing.T) {
	en := newEngine(t)
	defineShape(t, en, true)
	s := newShape(t, en, 1, 2)
	fired := 0
	en.Hooks.Install("Shape", "grow", &schema.UpdateHook{
		Name:  "t",
		After: func(*schema.Engine, object.Recv, []object.Value) error { fired++; return nil },
	})
	if _, err := en.CallFunction("Shape.grow", []object.Value{object.Ref(s), object.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("public op hook fired %d times", fired)
	}
}

func TestTrackingAndEncapsulationBoundary(t *testing.T) {
	// Open schema: a tracked evaluation marks the subobjects.
	en := newEngine(t)
	defineShape(t, en, false)
	s := newShape(t, en, 3, 4)
	so, _ := en.Objs.Get(s)
	p := so.Attrs[0].R
	fn, _ := en.Sch.ResolveOp("Shape", "size")
	v, accessed, _, err := en.EvalTrackedOrdered(fn, []object.Value{object.Ref(s)})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(object.Float(25)) {
		t.Fatalf("size = %v", v)
	}
	if _, ok := accessed[s]; !ok {
		t.Fatal("receiver not tracked")
	}
	if _, ok := accessed[p]; !ok {
		t.Fatal("subobject not tracked in open schema")
	}

	// Encapsulated schema with declarations: only the receiver is marked.
	en2 := newEngine(t)
	defineShape(t, en2, true)
	s2 := newShape(t, en2, 3, 4)
	so2, _ := en2.Objs.Get(s2)
	p2 := so2.Attrs[0].R
	fn2, _ := en2.Sch.ResolveOp("Shape", "size")
	_, accessed2, _, err := en2.EvalTrackedOrdered(fn2, []object.Value{object.Ref(s2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := accessed2[s2]; !ok {
		t.Fatal("receiver not tracked (encapsulated)")
	}
	if _, ok := accessed2[p2]; ok {
		t.Fatal("subobject tracked across the encapsulation boundary")
	}
}

func TestEvalRawBypassesInterceptor(t *testing.T) {
	en := newEngine(t)
	defineShape(t, en, false)
	s := newShape(t, en, 1, 0)
	intercepted := 0
	en.SetInterceptor(func(_ schema.FuncID, args []object.Value) (object.Value, bool, error) {
		intercepted++
		return object.Float(-1), true, nil
	})
	// Normal call path is intercepted.
	v, err := en.CallFunction("Shape.size", []object.Value{object.Ref(s)})
	if err != nil || !v.Equal(object.Float(-1)) {
		t.Fatalf("intercepted call = %v, %v", v, err)
	}
	// EvalRaw must not be.
	fn, _ := en.Sch.ResolveOp("Shape", "size")
	v, err = en.EvalRaw(fn, []object.Value{object.Ref(s)})
	if err != nil || !v.Equal(object.Float(1)) {
		t.Fatalf("EvalRaw = %v, %v", v, err)
	}
	if intercepted != 1 {
		t.Fatalf("interceptor fired %d times", intercepted)
	}
}

func TestEngineErrors(t *testing.T) {
	en := newEngine(t)
	defineShape(t, en, false)
	if _, err := en.CallFunction("Shape.nothere", []object.Value{object.Null()}); err == nil {
		t.Fatal("unknown op call succeeded")
	}
	if err := en.SetAttr(object.Int(1), "X", object.Null()); err == nil {
		t.Fatal("set_attr on non-ref succeeded")
	}
	if err := en.InsertElem(object.Null(), object.Int(1)); err == nil {
		t.Fatal("insert on null succeeded")
	}
	s := newShape(t, en, 0, 0)
	if err := en.SetAttrByName(s, "Nope", object.Null()); err == nil {
		t.Fatal("set of unknown attribute succeeded")
	}
	if err := en.InsertElem(object.Ref(s), object.Int(1)); err == nil {
		t.Fatal("insert on tuple object succeeded")
	}
	if _, err := en.ReadAttr(object.Ref(object.OID(9999)), "X"); err == nil {
		t.Fatal("read through dangling reference succeeded")
	}
}

func TestCreateDeleteHooks(t *testing.T) {
	en := newEngine(t)
	defineShape(t, en, false)
	var created, deleted []object.OID
	en.Hooks.Install("Point", "create", &schema.UpdateHook{
		Name: "t",
		After: func(_ *schema.Engine, recv object.Recv, _ []object.Value) error {
			created = append(created, recv.OID)
			return nil
		},
	})
	en.Hooks.Install("Point", "delete", &schema.UpdateHook{
		Name: "t",
		Before: func(_ *schema.Engine, recv object.Recv, _ []object.Value) error {
			deleted = append(deleted, recv.OID)
			return nil
		},
	})
	p, err := en.Create("Point", []object.Value{object.Float(0), object.Float(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := en.Delete(p); err != nil {
		t.Fatal(err)
	}
	if len(created) != 1 || created[0] != p || len(deleted) != 1 || deleted[0] != p {
		t.Fatalf("create/delete hooks: %v / %v", created, deleted)
	}
}
