package gomdb_test

// Update hooks are handed a receiver view (OID, type, ObjDepFct set) read
// from the record, not the decoded object. The tests here check every view
// against the decoded object at the point the hooks see it.

import (
	"fmt"
	"slices"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// viewAudit is a test-only hook installed on every elementary update of
// every type and on every public operation with an InvalidatedFct
// declaration. Installed before any GMR, it runs first among an update's
// hooks, so each view it is handed must equal Objs.Get of the same record
// at the same point: the pre-update state in Before, the stored state in
// After. Every other hook of the update is handed the same view.
type viewAudit struct {
	t  *testing.T
	db *gomdb.Database
	// seen counts the audited views by operation kind and phase, e.g.
	// "set/before" or "public/after".
	seen map[string]int
}

func auditViews(t *testing.T, db *gomdb.Database) *viewAudit {
	t.Helper()
	a := &viewAudit{t: t, db: db, seen: make(map[string]int)}
	for _, tn := range db.Schema.Reg.Types() {
		typ := db.Schema.Reg.Lookup(tn)
		var ops []string
		switch typ.Kind {
		case object.TupleType:
			for _, at := range db.Objects.Layout(tn) {
				ops = append(ops, "set_"+at.Name)
			}
		case object.SetType, object.ListType:
			ops = append(ops, "insert", "remove")
		default:
			continue
		}
		ops = append(ops, "create", "delete")
		for _, op := range db.Schema.OpNames(tn) {
			if _, ok := db.Schema.InvalidatedFct(tn, op); ok {
				ops = append(ops, op)
			}
		}
		for _, op := range ops {
			kind := op
			switch {
			case len(op) > 4 && op[:4] == "set_":
				kind = "set"
			case op != "insert" && op != "remove" && op != "create" && op != "delete":
				kind = "public"
			}
			db.Engine.Hooks.Install(tn, op, &schema.UpdateHook{
				Name:   "audit",
				Before: a.check(tn+"."+op, kind+"/before"),
				After:  a.check(tn+"."+op, kind+"/after"),
			})
		}
	}
	return a
}

func (a *viewAudit) check(op, phase string) func(*schema.Engine, object.Recv, []object.Value) error {
	return func(_ *schema.Engine, recv object.Recv, _ []object.Value) error {
		a.seen[phase]++
		if len(recv.DepFcts) > 0 {
			a.seen["marked"]++
		}
		o, err := a.db.Objects.Get(recv.OID)
		if err != nil {
			a.t.Fatalf("%s %s: the view's object %v does not read: %v", op, phase, recv.OID, err)
		}
		if recv.OID != o.OID || recv.Type != o.Type || !slices.Equal(recv.DepFcts, o.DepFcts) {
			a.t.Fatalf("%s %s: view %v %q %q, Get returns %v %q %q",
				op, phase, recv.OID, recv.Type, recv.DepFcts, o.OID, o.Type, o.DepFcts)
		}
		return nil
	}
}

// covered fails unless every phase in want was audited at least once, and
// some view carried a non-empty ObjDepFct set.
func (a *viewAudit) covered(want ...string) {
	a.t.Helper()
	for _, p := range append(want, "marked") {
		if a.seen[p] == 0 {
			a.t.Errorf("no %s view was audited (audited: %v)", p, a.seen)
		}
	}
}

// consistent fails unless every named GMR passes the Definition 3.2 audit.
func consistent(t *testing.T, db *gomdb.Database, names ...string) {
	t.Helper()
	for _, n := range names {
		rep, err := db.CheckConsistency(n, 1e-9, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

// TestHookViewsMatchGet runs set_A, insert, remove, create and delete, a
// hooked public operation under information hiding and two compensating
// actions on the geometry and company fixtures, both with subtypes, and
// compares every view a hook is handed with the decoded object.
func TestHookViewsMatchGet(t *testing.T) {
	t.Run("geometry", func(t *testing.T) {
		db := gomdb.Open(gomdb.DefaultConfig())
		if err := fixtures.DefineGeometry(db, false); err != nil {
			t.Fatal(err)
		}
		crate := gomdb.NewTupleType("Crate", gomdb.PubAttr("Label", "string"))
		crate.Super = "Cuboid"
		if err := db.DefineType(crate); err != nil {
			t.Fatal(err)
		}
		g, err := fixtures.PopulateGeometry(db, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		a := auditViews(t, db)
		// Crates: Cuboids of the subtype, built from a cuboid's attributes.
		co, err := db.Objects.Get(g.Cuboids[0])
		if err != nil {
			t.Fatal(err)
		}
		var crates []gomdb.OID
		for i := 0; i < 3; i++ {
			crates = append(crates, db.MustNew("Crate", append(slices.Clone(co.Attrs), gomdb.Str(fmt.Sprint(i)))...))
		}
		var sets []gomdb.OID
		for s := 0; s < 2; s++ {
			set, err := db.NewSet("Workpieces", gomdb.Ref(g.Cuboids[2*s]), gomdb.Ref(g.Cuboids[2*s+1]), gomdb.Ref(crates[s]))
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, set)
		}
		for _, opts := range []gomdb.MaterializeOptions{
			{Name: "Gvol", Funcs: []string{"Cuboid.volume"}, Complete: true, Mode: gomdb.ModeObjDep, Strategy: gomdb.Immediate},
			{Name: "Gwt", Funcs: []string{"Cuboid.weight"}, Complete: true, Mode: gomdb.ModeObjDep, Strategy: gomdb.Lazy},
			{Name: "Gtot", Funcs: []string{"Workpieces.total_volume"}, Complete: true, Mode: gomdb.ModeObjDep, Strategy: gomdb.Immediate},
		} {
			if _, err := db.Materialize(opts); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.DefineOpSrc("Workpieces", `
			define increase_total(new_cuboid: Cuboid, old_total: float): float is
				return old_total + new_cuboid.volume
			end`, true); err != nil {
			t.Fatal(err)
		}
		comp, err := db.Schema.LookupFunction("Workpieces.increase_total")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.GMRs.DefineCompensation("Workpieces", "insert", "Workpieces.total_volume", comp); err != nil {
			t.Fatal(err)
		}
		by := fixtures.NewVertex(db, 1.5, 0.5, 2)
		for i := 0; i < 40; i++ {
			c := g.Cuboids[i%len(g.Cuboids)]
			if i%4 == 0 {
				c = crates[i%len(crates)]
			}
			v, err := db.GetAttr(c, cuboidVertices[i%8])
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Set(v.R, vertexCoords[i%3], gomdb.Float(float64(i))); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Call("Cuboid.weight", gomdb.Ref(c)); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				if _, err := db.Call("Cuboid.scale", gomdb.Ref(c), gomdb.Ref(by)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.Set(crates[0], "Label", gomdb.Str("moved")); err != nil {
			t.Fatal(err)
		}
		compensations := db.GMRs.Stats.Compensations
		for _, c := range []gomdb.OID{g.Cuboids[7], crates[2]} {
			if err := db.Insert(sets[0], gomdb.Ref(c)); err != nil {
				t.Fatal(err)
			}
		}
		if db.GMRs.Stats.Compensations == compensations {
			t.Fatal("no insert was compensated")
		}
		if err := db.Remove(sets[0], gomdb.Ref(g.Cuboids[0])); err != nil {
			t.Fatal(err)
		}
		// Creates and deletes of both types; no workpiece set holds them.
		for _, c := range []gomdb.OID{
			g.CreateRandomCuboid(),
			db.MustNew("Crate", append(slices.Clone(co.Attrs), gomdb.Str("new"))...),
		} {
			if err := db.Delete(c); err != nil {
				t.Fatal(err)
			}
		}
		a.covered("set/before", "set/after", "insert/before", "insert/after",
			"remove/before", "remove/after", "create/after", "delete/before")
		consistent(t, db, "Gvol", "Gwt", "Gtot")
	})

	t.Run("geometry-info-hiding", func(t *testing.T) {
		db := gomdb.Open(gomdb.DefaultConfig())
		if err := fixtures.DefineGeometry(db, true); err != nil {
			t.Fatal(err)
		}
		g, err := fixtures.PopulateGeometry(db, 12, 5)
		if err != nil {
			t.Fatal(err)
		}
		a := auditViews(t, db)
		if _, err := db.Materialize(gomdb.MaterializeOptions{
			Name: "Gvol", Funcs: []string{"Cuboid.volume"}, Complete: true,
			Mode: gomdb.ModeInfoHiding, Strategy: gomdb.Immediate,
		}); err != nil {
			t.Fatal(err)
		}
		by := fixtures.NewVertex(db, 2, 0.5, 1.5)
		remats := db.GMRs.Stats.Rematerializations
		for i := 0; i < 12; i++ {
			if _, err := db.Call("Cuboid.scale", gomdb.Ref(g.Cuboids[i]), gomdb.Ref(by)); err != nil {
				t.Fatal(err)
			}
		}
		if db.GMRs.Stats.Rematerializations == remats {
			t.Fatal("no scale rematerialized volume")
		}
		a.covered("public/before", "public/after", "set/before", "set/after")
		consistent(t, db, "Gvol")
	})

	t.Run("company", func(t *testing.T) {
		db := gomdb.Open(gomdb.DefaultConfig())
		if err := fixtures.DefineCompany(db); err != nil {
			t.Fatal(err)
		}
		c, err := fixtures.PopulateCompany(db, fixtures.CompanyConfig{
			Departments: 2, EmpsPerDep: 4, Projects: 6, JobsPerEmp: 3, ProgsPerProj: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		a := auditViews(t, db)
		for _, opts := range []gomdb.MaterializeOptions{
			{Name: "Grank", Funcs: []string{"Employee.ranking"}, Complete: true, Mode: gomdb.ModeObjDep, Strategy: gomdb.Immediate},
			{Name: "Gmatrix", Funcs: []string{"Company.matrix"}, Complete: true, Mode: gomdb.ModeInfoHiding, Strategy: gomdb.Immediate},
		} {
			if _, err := db.Materialize(opts); err != nil {
				t.Fatal(err)
			}
		}
		comp, err := db.Schema.LookupFunction("Company.comp_add_project")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.GMRs.DefineCompensation("Company", "add_project", "Company.matrix", comp); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := c.Promote(); err != nil {
				t.Fatal(err)
			}
		}
		// Person.Name on Employees: a set_A inherited by the subtype.
		if err := db.Set(c.Employees[0], "Name", gomdb.Str("renamed")); err != nil {
			t.Fatal(err)
		}
		compensations := db.GMRs.Stats.Compensations
		p, err := c.NewProjectWithProgrammers(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Call("Company.add_project", gomdb.Ref(c.Comp), gomdb.Ref(p)); err != nil {
			t.Fatal(err)
		}
		if db.GMRs.Stats.Compensations == compensations {
			t.Fatal("add_project was not compensated")
		}
		if _, err := db.Call("Company.staff_project", gomdb.Ref(c.Comp), gomdb.Ref(p), gomdb.Ref(c.Employees[1])); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Call("Company.unstaff_project", gomdb.Ref(c.Comp), gomdb.Ref(p), gomdb.Ref(c.Employees[1])); err != nil {
			t.Fatal(err)
		}
		e, err := c.HireEmployee(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(e); err != nil {
			t.Fatal(err)
		}
		a.covered("set/before", "set/after", "insert/before", "insert/after",
			"remove/before", "remove/after", "create/after", "delete/before",
			"public/before", "public/after")
		consistent(t, db, "Grank", "Gmatrix")
	})
}
