package schema_test

import (
	"testing"

	"gomdb/internal/lang"
	"gomdb/internal/object"
	"gomdb/internal/schema"
)

// TestFingerprintCacheFollowsDDL: after every kind of schema definition the
// cached fingerprint equals an uncached computation, and each one moved
// it. The cache is read before each step, so a mutator that forgot to drop
// it would hand back the previous value.
func TestFingerprintCacheFollowsDDL(t *testing.T) {
	sch := schema.New()
	seen := map[uint64]string{}
	step := func(name string, ddl func() error) {
		t.Helper()
		sch.Fingerprint()
		if err := ddl(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := sch.Fingerprint(), sch.FingerprintUncached()
		if got != want {
			t.Fatalf("after %s: cached fingerprint %#x, uncached %#x", name, got, want)
		}
		if prev, dup := seen[got]; dup {
			t.Fatalf("after %s: fingerprint %#x unchanged since %s", name, got, prev)
		}
		seen[got] = name
	}
	step("nothing", func() error { return nil })
	step("DefineType", func() error {
		return sch.DefineType(object.NewTupleType("Point",
			object.AttrDef{Name: "X", Type: "float"}, object.AttrDef{Name: "Y", Type: "float"}))
	})
	step("DefineOp", func() error {
		return sch.DefineOp("Point", "norm", &lang.Function{
			Params:     []lang.Param{lang.Prm("self", "Point")},
			ResultType: "float",
			Body:       []lang.Stmt{lang.Ret(lang.A(lang.Self(), "X"))},
		})
	})
	step("DefineFunc", func() error {
		return sch.DefineFunc(&lang.Function{
			Name:       "twice",
			Params:     []lang.Param{lang.Prm("p", "Point")},
			ResultType: "float",
			Body:       []lang.Stmt{lang.Ret(lang.A(lang.V("p"), "Y"))},
		})
	})
	step("MakePublic", func() error {
		sch.MakePublic("Point", "norm")
		return nil
	})
	step("DeclareInvalidatedFct", func() error {
		sch.DeclareInvalidatedFct("Point", "norm", "Point.norm")
		return nil
	})
	step("DefineOpSrc", func() error {
		_, err := sch.DefineOpSrc("Point", "define sum: float is return self.X + self.Y end", true)
		return err
	})
}
