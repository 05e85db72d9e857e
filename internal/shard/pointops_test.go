package shard_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/shard"
)

// pointOps is the point-op surface *shard.DB and *shard.Tx both serve.
type pointOps interface {
	New(typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
	NewOn(sh int, typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
	NewSet(typeName string, elems ...gomdb.Value) (gomdb.OID, error)
	Delete(oid gomdb.OID) error
	Set(oid gomdb.OID, attr string, v gomdb.Value) error
	GetAttr(oid gomdb.OID, attr string) (gomdb.Value, error)
	Insert(set gomdb.OID, elem gomdb.Value) error
	Remove(set gomdb.OID, elem gomdb.Value) error
	Call(fn string, args ...gomdb.Value) (gomdb.Value, error)
	Owner(oid gomdb.OID) (int, bool)
}

// pointScript runs every point op through ops and returns one line per step.
// refusals names the steps that must be refused and the sentinel each must
// match.
func pointScript(t *testing.T, ops pointOps, mat, robot, spare gomdb.OID) (log []string, refusals map[string]error) {
	t.Helper()
	refusals = map[string]error{}
	step := func(name string, v any, err error) {
		log = append(log, fmt.Sprintf("%s: %v err=%v", name, v, err))
	}
	refuse := func(name string, want error, err error) {
		refusals[name] = want
		if !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
		step(name, nil, err)
	}
	must := func(name string) func(gomdb.OID, error) gomdb.OID {
		return func(oid gomdb.OID, err error) gomdb.OID {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			step(name, oid, nil)
			return oid
		}
	}
	f := gomdb.Float

	// Two cuboid graphs, on shards 1 and 2: vertices placed explicitly, the
	// cuboid by reference affinity.
	cuboid := func(sh int, id int64) gomdb.OID {
		attrs := make([]gomdb.Value, 0, 11)
		for i := 0; i < 8; i++ {
			v := must(fmt.Sprintf("NewOn(%d) vertex", sh))(ops.NewOn(sh, "Vertex", f(float64(i%2)), f(float64(i/2%2)), f(float64(i/4))))
			attrs = append(attrs, gomdb.Ref(v))
		}
		attrs = append(attrs, gomdb.Ref(mat), f(float64(10*id)), gomdb.Int(id))
		return must("New cuboid by affinity")(ops.New("Cuboid", attrs...))
	}
	c1 := cuboid(1, 1)
	c2 := cuboid(1, 2)
	c3 := cuboid(2, 3)
	free := must("New vertex unconstrained")(ops.New("Vertex", f(7), f(8), f(9)))
	ws := must("NewSet by affinity")(ops.NewSet("Workpieces", gomdb.Ref(c1)))
	for _, oid := range []gomdb.OID{c1, c2, c3, free, ws, mat, robot} {
		sh, ok := ops.Owner(oid)
		step(fmt.Sprintf("Owner(%v)", oid), sh, fmt.Errorf("ok=%v", ok))
	}

	step("Set routed", nil, ops.Set(c1, "Value", f(99)))
	step("Set replicated", nil, ops.Set(mat, "SpecWeight", f(3.5)))
	for _, oid := range []gomdb.OID{c1, mat} {
		attr := "Value"
		if oid == mat {
			attr = "SpecWeight"
		}
		v, err := ops.GetAttr(oid, attr)
		step("GetAttr "+attr, v, err)
	}
	step("Insert", nil, ops.Insert(ws, gomdb.Ref(c2)))
	for _, fn := range []string{"Cuboid.volume", "Cuboid.weight"} {
		v, err := ops.Call(fn, gomdb.Ref(c1))
		step("Call "+fn, v, err)
	}
	v, err := ops.Call("Workpieces.total_volume", gomdb.Ref(ws))
	step("Call total_volume", v, err)
	v, err = ops.Call("Cuboid.distance", gomdb.Ref(c3), gomdb.Ref(robot))
	step("Call distance", v, err)
	step("Remove", nil, ops.Remove(ws, gomdb.Ref(c2)))
	v, err = ops.Call("Workpieces.total_volume", gomdb.Ref(ws))
	step("Call total_volume after Remove", v, err)

	step("Delete routed", nil, ops.Delete(free))
	step("Delete replicated", nil, ops.Delete(spare))
	for _, oid := range []gomdb.OID{free, spare} {
		sh, ok := ops.Owner(oid)
		step(fmt.Sprintf("Owner(%v) after Delete", oid), sh, fmt.Errorf("ok=%v", ok))
	}

	// Refusals.
	const unknown = gomdb.OID(1 << 40)
	c3v1, err := ops.GetAttr(c3, "V1")
	step("GetAttr c3.V1", c3v1, err)
	_, err = ops.GetAttr(unknown, "Value")
	refuse("GetAttr unknown", shard.ErrUnknownOID, err)
	refuse("Set unknown", shard.ErrUnknownOID, ops.Set(unknown, "Value", f(1)))
	refuse("Delete unknown", shard.ErrUnknownOID, ops.Delete(free))
	refuse("Insert unknown", shard.ErrUnknownOID, ops.Insert(unknown, gomdb.Ref(c1)))
	refuse("Remove unknown", shard.ErrUnknownOID, ops.Remove(unknown, gomdb.Ref(c1)))
	_, err = ops.New("Robot", gomdb.Str("r"), gomdb.Ref(unknown))
	refuse("New ref unknown", shard.ErrUnknownOID, err)
	_, err = ops.Call("Cuboid.volume", gomdb.Ref(unknown))
	refuse("Call unknown", shard.ErrUnknownOID, err)
	refuse("Set cross-shard", shard.ErrCrossShardRef, ops.Set(c1, "V2", c3v1))
	refuse("Set replicated to routed", shard.ErrCrossShardRef, ops.Set(robot, "Pos", c3v1))
	refuse("Insert cross-shard", shard.ErrCrossShardRef, ops.Insert(ws, gomdb.Ref(c3)))
	_, err = ops.NewOn(1, "Robot", gomdb.Str("r"), c3v1)
	refuse("NewOn cross-shard", shard.ErrCrossShardRef, err)
	_, err = ops.NewOn(5, "Vertex", f(0), f(0), f(0))
	refuse("NewOn shard 5 of 3", shard.ErrNoSuchShard, err)
	_, err = ops.NewOn(-1, "Vertex", f(0), f(0), f(0))
	refuse("NewOn shard -1", shard.ErrNoSuchShard, err)
	_, err = ops.NewSet("Workpieces", gomdb.Ref(c1), gomdb.Ref(c3))
	refuse("NewSet cross-shard", shard.ErrCrossShardRef, err)
	_, err = ops.Call("Cuboid.distance", gomdb.Ref(c1), gomdb.Ref(c3))
	refuse("Call cross-shard", shard.ErrCrossShardRef, err)
	return log, refusals
}

// TestPointOpsTopLevelMatchBatch runs one script of every point op on two
// identical 3-shard routers — at top level on one, inside one Batch on the
// other — and requires the same results, the same refusals and the same
// routing tables.
func TestPointOpsTopLevelMatchBatch(t *testing.T) {
	type run struct {
		db   *shard.DB
		log  []string
		refs map[string]error
	}
	runs := [2]run{}
	for i := range runs {
		db := openSharded(t, 3)
		mat, err := db.NewReplicated("Material", gomdb.Str("Iron"), gomdb.Float(7.86))
		if err != nil {
			t.Fatal(err)
		}
		pos, err := db.NewReplicated("Vertex", gomdb.Float(100), gomdb.Float(0), gomdb.Float(0))
		if err != nil {
			t.Fatal(err)
		}
		robot, err := db.NewReplicated("Robot", gomdb.Str("R1"), gomdb.Ref(pos))
		if err != nil {
			t.Fatal(err)
		}
		spare, err := db.NewReplicated("Vertex", gomdb.Float(1), gomdb.Float(1), gomdb.Float(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Materialize(gomdb.MaterializeOptions{
			Name: "Gvw", Funcs: []string{"Cuboid.volume", "Cuboid.weight"},
			Complete: true, Strategy: gomdb.Immediate, Mode: gomdb.ModeObjDep,
		}); err != nil {
			t.Fatal(err)
		}
		runs[i].db = db
		if i == 0 {
			runs[i].log, runs[i].refs = pointScript(t, db, mat, robot, spare)
			continue
		}
		if err := db.Batch(func(tx *shard.Tx) error {
			runs[i].log, runs[i].refs = pointScript(t, tx, mat, robot, spare)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	top, batch := runs[0], runs[1]
	if a, b := strings.Join(top.log, "\n"), strings.Join(batch.log, "\n"); a != b {
		t.Fatalf("top level and batch differ:\n--- top level\n%s\n--- batch\n%s", a, b)
	}
	if !reflect.DeepEqual(top.refs, batch.refs) {
		t.Fatalf("refusal sets differ: %v vs %v", top.refs, batch.refs)
	}
	oids := top.db.RoutedOIDs()
	if got := batch.db.RoutedOIDs(); !reflect.DeepEqual(oids, got) {
		t.Fatalf("routed OIDs differ:\n%v\n%v", oids, got)
	}
	used := map[int]bool{}
	for _, oid := range oids {
		a, _ := top.db.Owner(oid)
		b, _ := batch.db.Owner(oid)
		if a != b {
			t.Fatalf("owner of %v: %d at top level, %d in a batch", oid, a, b)
		}
		used[a] = true
	}
	if len(used) < 3 {
		t.Fatalf("script placed objects on %d owners, want shards 1, 2 and replicated at least", len(used))
	}
	for _, db := range []*shard.DB{top.db, batch.db} {
		requireAllRouted(t, db)
		rep, err := db.CheckConsistency("Gvw", 1e-9, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("Gvw: %v", rep.Violations)
		}
	}
}

// TestRouterPointOpsRaceBatches runs top-level point ops from four
// goroutines, each on its own cuboid graphs, while a fifth runs batches that
// create and delete graphs through Tx. Top-level ops take the routing lock
// per call and batches hold it throughout; at the end every live object must
// be routed and every GMR consistent.
func TestRouterPointOpsRaceBatches(t *testing.T) {
	const workers, rounds, shards = 4, 6, 3
	db := openSharded(t, shards)
	g, err := fixtures.PopulateGeometryOn(db, 6, 41)
	if err != nil {
		t.Fatal(err)
	}
	materializeStandard(t, db.Materialize)
	mat := g.MaterialO[0]

	// graph creates a cuboid graph on shard sh through c and returns the
	// cuboid and its vertices.
	graph := func(c interface {
		NewOn(int, string, ...gomdb.Value) (gomdb.OID, error)
		GetAttr(gomdb.OID, string) (gomdb.Value, error)
	}, sh int, id int64) ([]gomdb.OID, error) {
		oid, err := fixtures.NewCuboidOn(c, sh, id, float64(id%7), 0, 0, 1+float64(id%3), 2, 3, mat, 1)
		if err != nil {
			return nil, err
		}
		objs := []gomdb.OID{oid}
		for v := 1; v <= 8; v++ {
			ref, err := c.GetAttr(oid, fmt.Sprintf("V%d", v))
			if err != nil {
				return nil, err
			}
			objs = append(objs, ref.R)
		}
		return objs, nil
	}
	drop := func(del func(gomdb.OID) error, objs []gomdb.OID) error {
		for _, oid := range objs {
			if err := del(oid); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- func() error {
				for i := 0; i < rounds; i++ {
					objs, err := graph(db, w%shards, int64(1000*(w+1)+i))
					if err != nil {
						return err
					}
					if err := db.Set(objs[1], "X", gomdb.Float(float64(i))); err != nil {
						return err
					}
					if v, err := db.GetAttr(objs[1], "X"); err != nil || v.F != float64(i) {
						return fmt.Errorf("worker %d: X = %v, %v", w, v, err)
					}
					if _, err := db.Call("Cuboid.volume", gomdb.Ref(objs[0])); err != nil {
						return err
					}
					if i%2 == 0 {
						if err := drop(db.Delete, objs); err != nil {
							return err
						}
					}
				}
				return nil
			}()
		}(w)
	}
	go func() {
		var kept [][]gomdb.OID
		for i := 0; i < 2*rounds; i++ {
			err := db.Batch(func(tx *shard.Tx) error {
				objs, err := graph(tx, i%shards, int64(9000+i))
				if err != nil {
					return err
				}
				if _, err := tx.Call("Cuboid.volume", gomdb.Ref(objs[0])); err != nil {
					return err
				}
				kept = append(kept, objs)
				if i%3 == 2 {
					if err := drop(tx.Delete, kept[0]); err != nil {
						return err
					}
					kept = kept[1:]
				}
				return nil
			})
			if err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < workers+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	requireAllRouted(t, db)
	for _, oid := range db.RoutedOIDs() {
		sh, _ := db.Owner(oid)
		if sh == -1 {
			sh = 0
		}
		if !db.Shard(sh).Exists(oid) {
			t.Fatalf("routed oid %v is not live on its owner, shard %d", oid, sh)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Gvw", "Gdist"} {
		rep, err := db.CheckConsistency(name, 1e-9, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 || rep.Invalid != 0 {
			t.Fatalf("%s after the race: %+v", name, rep)
		}
	}
}
