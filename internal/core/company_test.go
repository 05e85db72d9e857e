package core_test

// Tests over the Section 7.2 company application: materialized ranking
// (scalar results over a deep path), materialized matrix (complex result
// stored as objects), and the compensating action for project insertion.

import (
	"sort"
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/core"
	"gomdb/internal/fixtures"
)

func companyDB(t *testing.T, cfg fixtures.CompanyConfig) (*gomdb.Database, *fixtures.Company) {
	t.Helper()
	db := gomdb.Open(gomdb.DefaultConfig())
	if err := fixtures.DefineCompany(db); err != nil {
		t.Fatalf("DefineCompany: %v", err)
	}
	c, err := fixtures.PopulateCompany(db, cfg)
	if err != nil {
		t.Fatalf("PopulateCompany: %v", err)
	}
	return db, c
}

func smallCompany() fixtures.CompanyConfig {
	return fixtures.CompanyConfig{
		Departments: 3, EmpsPerDep: 5, Projects: 10, JobsPerEmp: 4, ProgsPerProj: 3, Seed: 42,
	}
}

// TestRankingMaterialization materializes Employee.ranking and verifies
// consistency under promotions.
func TestRankingMaterialization(t *testing.T) {
	db, c := companyDB(t, smallCompany())
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Employee.ranking"},
		Complete: true,
		Strategy: gomdb.Immediate,
		Mode:     gomdb.ModeObjDep,
	})
	if err != nil {
		t.Fatalf("Materialize ranking: %v", err)
	}
	if gmr.Len() != len(c.Employees) {
		t.Fatalf("ranking GMR has %d entries, want %d", gmr.Len(), len(c.Employees))
	}
	checkConsistent(t, db, gmr)
	for i := 0; i < 5; i++ {
		if err := c.Promote(); err != nil {
			t.Fatalf("promote: %v", err)
		}
		checkConsistent(t, db, gmr)
	}
	// A promotion must invalidate exactly the promoted employee's ranking.
	db.GMRs.Stats = core.Stats{}
	if err := c.Promote(); err != nil {
		t.Fatal(err)
	}
	if db.GMRs.Stats.Invalidations != 1 {
		t.Fatalf("promotion invalidated %d results, want 1", db.GMRs.Stats.Invalidations)
	}
}

// TestRankingBackward runs the Figure 13 backward query shape against the
// materialized ranking.
func TestRankingBackward(t *testing.T) {
	db, c := companyDB(t, smallCompany())
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Employee.ranking"},
		Complete: true,
		Strategy: gomdb.Lazy,
		Mode:     gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	// Invalidate a few rankings, then a backward query must revalidate.
	for i := 0; i < 3; i++ {
		if err := c.Promote(); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := db.GMRs.Backward("Employee.ranking", 0, 1e9)
	if err != nil {
		t.Fatalf("Backward: %v", err)
	}
	// Every employee's ranking is >= 0 given the fixture's value ranges
	// except possibly strongly negative project statuses; just check that
	// the answer agrees with brute force.
	count := 0
	for _, e := range c.Employees {
		fn, _ := db.Schema.LookupFunction("Employee.ranking")
		v, err := db.Engine.EvalRaw(fn, []gomdb.Value{gomdb.Ref(e)})
		if err != nil {
			t.Fatal(err)
		}
		if f, _ := v.AsFloat(); f >= 0 && f <= 1e9 {
			count++
		}
	}
	if len(matches) != count {
		t.Fatalf("backward ranking query returned %d rows, brute force says %d", len(matches), count)
	}
}

// TestMatrixMaterialization materializes the complex-result matrix function
// and verifies the result object structure and invalidation via the
// encapsulated add_project operation.
func TestMatrixMaterialization(t *testing.T) {
	db, c := companyDB(t, smallCompany())
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Company.matrix"},
		Complete: true,
		Strategy: gomdb.Immediate,
		Mode:     gomdb.ModeInfoHiding,
	})
	if err != nil {
		t.Fatalf("Materialize matrix: %v", err)
	}
	if gmr.Len() != 1 {
		t.Fatalf("matrix GMR has %d entries, want 1", gmr.Len())
	}
	v, err := db.Call("Company.matrix", gomdb.Ref(c.Comp))
	if err != nil {
		t.Fatalf("matrix call: %v", err)
	}
	if v.Kind != gomdb.Ref(0).Kind {
		t.Fatalf("matrix result is %v, want an object reference", v.Kind)
	}
	lines, err := db.Engine.ReadElems(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatalf("matrix has no lines")
	}
	// Every line's Emps set must be non-empty and each employee must be in
	// the department and a programmer of the project.
	for _, l := range lines {
		dep, _ := db.Engine.ReadAttr(l, "Dep")
		proj, _ := db.Engine.ReadAttr(l, "Proj")
		emps, _ := db.Engine.ReadAttr(l, "Emps")
		members, err := db.Engine.ReadElems(emps)
		if err != nil {
			t.Fatal(err)
		}
		if len(members) == 0 {
			t.Fatalf("matrix line with empty Emps")
		}
		depEmpsRef, _ := db.Engine.ReadAttr(dep, "Emps")
		depEmps, _ := db.Engine.ReadElems(depEmpsRef)
		progsRef, _ := db.Engine.ReadAttr(proj, "Programmers")
		progs, _ := db.Engine.ReadElems(progsRef)
		inSet := func(set []gomdb.Value, e gomdb.Value) bool {
			for _, x := range set {
				if x.Equal(e) {
					return true
				}
			}
			return false
		}
		for _, e := range members {
			if !inSet(depEmps, e) || !inSet(progs, e) {
				t.Fatalf("matrix line contains employee %v not in dep/project", e)
			}
		}
	}

	// add_project through the public op must invalidate + rematerialize.
	db.GMRs.Stats = core.Stats{}
	p, err := c.NewProjectWithProgrammers(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Call("Company.add_project", gomdb.Ref(c.Comp), gomdb.Ref(p)); err != nil {
		t.Fatalf("add_project: %v", err)
	}
	if db.GMRs.Stats.Invalidations != 1 {
		t.Fatalf("add_project triggered %d invalidations, want 1", db.GMRs.Stats.Invalidations)
	}
	checkConsistent(t, db, gmr)
}

// TestMatrixCompensation registers the Figure 15 compensating action and
// verifies that project insertion updates the matrix without a full
// recomputation, producing the same matrix a recomputation would.
func TestMatrixCompensation(t *testing.T) {
	db, c := companyDB(t, smallCompany())
	gmr, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Company.matrix"},
		Complete: true,
		Strategy: gomdb.Immediate,
		Mode:     gomdb.ModeInfoHiding,
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := db.Schema.LookupFunction("Company.comp_add_project")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.GMRs.DefineCompensation("Company", "add_project", "Company.matrix", comp); err != nil {
		t.Fatalf("DefineCompensation: %v", err)
	}
	db.GMRs.Stats = core.Stats{}
	p, err := c.NewProjectWithProgrammers(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Call("Company.add_project", gomdb.Ref(c.Comp), gomdb.Ref(p)); err != nil {
		t.Fatal(err)
	}
	if db.GMRs.Stats.Compensations != 1 {
		t.Fatalf("add_project ran %d compensations, want 1 (stats %+v)", db.GMRs.Stats.Compensations, db.GMRs.Stats)
	}
	if db.GMRs.Stats.Rematerializations != 0 {
		t.Fatalf("compensation still caused %d rematerializations", db.GMRs.Stats.Rematerializations)
	}
	// The compensated matrix must equal a fresh recomputation, compared as
	// sets of (DepNo, PName, sorted EmpNos).
	var stored gomdb.Value
	gmr.Entries(func(args, results []gomdb.Value, valid []bool) bool {
		if !valid[0] {
			t.Fatalf("matrix entry invalid after compensation")
		}
		stored = results[0]
		return false
	})
	fn, _ := db.Schema.LookupFunction("Company.matrix")
	fresh, err := db.Engine.EvalRaw(fn, []gomdb.Value{gomdb.Ref(c.Comp)})
	if err != nil {
		t.Fatal(err)
	}
	if canonMatrix(t, db, stored) != canonMatrix(t, db, fresh) {
		t.Fatalf("compensated matrix differs from recomputation:\n%s\nvs\n%s",
			canonMatrix(t, db, stored), canonMatrix(t, db, fresh))
	}
}

// TestCompensationRejectsNonArgumentType checks the Definition 5.4 rule with
// the paper's example: a compensating action for total-volume-like functions
// may not be declared on an operation of a non-argument type.
func TestCompensationRejectsNonArgumentType(t *testing.T) {
	db, _ := companyDB(t, smallCompany())
	if _, err := db.Materialize(gomdb.MaterializeOptions{
		Funcs:    []string{"Employee.ranking"},
		Complete: true,
		Mode:     gomdb.ModeObjDep,
	}); err != nil {
		t.Fatal(err)
	}
	comp := &gomdb.Function{
		Name:           "bogus",
		Params:         []gomdb.Param{{Name: "self", Type: "Job"}, {Name: "old", Type: "float"}},
		ResultType:     "float",
		SideEffectFree: true,
	}
	err := db.GMRs.DefineCompensation("Job", "set_Good", "Employee.ranking", comp)
	if err == nil {
		t.Fatalf("compensating action on non-argument type Job was accepted")
	}
}

// canonMatrix renders a matrix value (ref to MatrixSet or transient set) as
// a canonical string for comparison.
func canonMatrix(t *testing.T, db *gomdb.Database, v gomdb.Value) string {
	t.Helper()
	lines, err := db.Engine.ReadElems(v)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, l := range lines {
		dep, _ := db.Engine.ReadAttr(l, "Dep")
		depNo, _ := db.Engine.ReadAttr(dep, "DepNo")
		proj, _ := db.Engine.ReadAttr(l, "Proj")
		pname, _ := db.Engine.ReadAttr(proj, "PName")
		emps, _ := db.Engine.ReadAttr(l, "Emps")
		members, _ := db.Engine.ReadElems(emps)
		var nos []string
		for _, e := range members {
			no, _ := db.Engine.ReadAttr(e, "EmpNo")
			nos = append(nos, no.String())
		}
		sort.Strings(nos)
		rows = append(rows, depNo.String()+"/"+pname.S+"/"+strings.Join(nos, ";"))
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}
