package sim

import (
	"fmt"

	"gomdb"
	"gomdb/internal/fixtures"
	"gomdb/internal/ocb"
	"gomdb/internal/shard"
)

// fixture is the object base a plan runs over: the hand-built geometry
// schema, or a synthetic base generated from ocb.Params. It owns everything
// that depends on what the objects are — schema, population, the GMR catalog,
// how an op's selectors resolve to OIDs, the mutation vocabulary — and
// nothing that depends on how many engines serve them.
type fixture interface {
	// define installs the schema on one engine.
	define(db *gomdb.Database) error
	// populate creates the initial base.
	populate(p shard.Placement, plan Plan) error
	// catalog is the GMR catalog mat/demat/retrieve ops index into.
	catalog() []gmrSpec
	// roots are the live instances of the type every catalog function ranges
	// over, and rootType its name: forward, sum and snap-read ops select
	// among them.
	roots() []gomdb.OID
	rootType() string
	// callArgs resolves a forward or snap-read op to the argument list of
	// function op.S; ok is false when no root is live.
	callArgs(op Op) (args []gomdb.Value, ok bool)
	// mutate applies one create, delete or elementary-update op through a and
	// returns its trace detail, rendered for a batch body when inBatch.
	mutate(a mutator, op Op, inBatch bool) string
	// resync rebuilds the OID bookkeeping from a recovered backend: work
	// after the last committed checkpoint is gone. Extent order is insertion
	// order, preserved through checkpoint and recovery (the router merges
	// shards in index order), so the lists are deterministic.
	resync(b backend)
	// census names and counts the population for audit and recovery lines.
	census() (noun string, n int)
}

// newFixture builds the fixture cfg selects. Everything random about a
// generated base is drawn here, from the plan's seed.
func newFixture(cfg EngineConfig, seed int64) (fixture, error) {
	if cfg.OCB == nil {
		return &geometry{}, nil
	}
	base, err := ocb.Gen(*cfg.OCB, seed)
	if err != nil {
		return nil, err
	}
	f := &generated{p: *cfg.OCB, base: base}
	for _, s := range ocb.Catalog(f.p) {
		// Every OCB spec is a one-function GMR over class 0.
		f.cat = append(f.cat, gmrSpec{Name: s.Name, Funcs: s.Funcs, Complete: s.Complete,
			MaxEntries: s.MaxEntries, NumArgs: 1})
	}
	return f, nil
}

// withErr renders an op outcome: operational errors are recorded in the
// trace, not escalated.
func withErr(detail string, err error) string {
	if err != nil {
		return detail + " ERR " + err.Error()
	}
	return detail
}

// geometry is the hand-built fixture. Under the router, materials and robots
// replicate and each cuboid graph (cuboid + 8 vertices + any transient
// scale/translate vector) is co-located on the shard its cuboid id hashes to.
type geometry struct {
	cuboids []gomdb.OID
	robots  []gomdb.OID
	mats    []gomdb.OID
	nextID  int64
}

func (g *geometry) define(db *gomdb.Database) error { return fixtures.DefineGeometry(db, false) }

func (g *geometry) populate(p shard.Placement, plan Plan) error {
	pop, err := fixtures.PopulateGeometryOn(p, plan.Init, plan.Seed)
	if err == nil {
		*g = geometry{cuboids: pop.Cuboids, robots: pop.Robots, mats: pop.MaterialO, nextID: pop.NextID}
	}
	return err
}

func (g *geometry) catalog() []gmrSpec    { return catalog }
func (g *geometry) roots() []gomdb.OID    { return g.cuboids }
func (g *geometry) rootType() string      { return "Cuboid" }
func (g *geometry) census() (string, int) { return "cuboids", len(g.cuboids) }
func (g *geometry) cuboid(x int) (gomdb.OID, bool) {
	if len(g.cuboids) == 0 {
		return 0, false
	}
	return g.cuboids[x%len(g.cuboids)], true
}

func (g *geometry) callArgs(op Op) ([]gomdb.Value, bool) {
	oid, ok := g.cuboid(op.X)
	if !ok {
		return nil, false
	}
	args := []gomdb.Value{gomdb.Ref(oid)}
	if op.S == "Cuboid.distance" {
		args = append(args, gomdb.Ref(g.robots[op.N%len(g.robots)]))
	}
	return args, true
}

func (g *geometry) resync(b backend) {
	g.cuboids = b.Extension("Cuboid")
	g.robots = b.Extension("Robot")
	g.mats = b.Extension("Material")
}

func (g *geometry) mutate(a mutator, op Op, inBatch bool) string {
	switch op.Kind {
	case OpCreate:
		oid, err := g.createCuboid(a, op)
		switch {
		case inBatch:
			return withErr("create "+oid.String(), err)
		case err != nil:
			return "ERR " + err.Error()
		}
		return fmt.Sprintf("cuboid %s (n=%d)", oid, len(g.cuboids))
	case OpDelete:
		oid, ok := g.cuboid(op.X)
		switch {
		case !ok && inBatch:
			return "delete skip"
		case !ok:
			return "skip (no cuboids)"
		}
		err := a.Delete(oid)
		if _, live := a.Owner(oid); !live {
			g.dropCuboid(oid)
		}
		if inBatch {
			return withErr("delete "+oid.String(), err)
		}
		return fmt.Sprintf("cuboid %s (n=%d) %s", oid, len(g.cuboids), errStr(err))
	}
	return withErr(g.update(a, op))
}

func (g *geometry) update(a mutator, op Op) (string, error) {
	oid, ok := g.cuboid(op.X)
	if !ok {
		return "skip (no cuboids)", nil
	}
	switch op.Kind {
	case OpSetValue:
		return fmt.Sprintf("%s.Value=%g", oid, op.F[0]),
			a.Set(oid, "Value", gomdb.Float(op.F[0]))
	case OpSetVertex:
		attr := fmt.Sprintf("V%d", 1+op.N%8)
		vref, err := a.GetAttr(oid, attr)
		if err != nil {
			return oid.String() + "." + attr, err
		}
		return fmt.Sprintf("%s.%s.%s=%g", oid, attr, op.S, op.F[0]),
			a.Set(vref.R, op.S, gomdb.Float(op.F[0]))
	case OpScale, OpTranslate:
		// The transient argument vertex must be co-located with the cuboid,
		// or the call's references would span shards.
		sh, _ := a.Owner(oid)
		vec, err := a.NewOn(sh, "Vertex", gomdb.Float(op.F[0]), gomdb.Float(op.F[1]), gomdb.Float(op.F[2]))
		if err != nil {
			return "new vertex", err
		}
		opName := "Cuboid.scale"
		if op.Kind == OpTranslate {
			opName = "Cuboid.translate"
		}
		_, err = a.Call(opName, gomdb.Ref(oid), gomdb.Ref(vec))
		return fmt.Sprintf("%s(%s, [%g %g %g])", opName, oid, op.F[0], op.F[1], op.F[2]), err
	case OpRotate:
		_, err := a.Call("Cuboid.rotate", gomdb.Ref(oid), gomdb.Float(op.F[0]), gomdb.Str(op.S))
		return fmt.Sprintf("rotate(%s, %g, %s)", oid, op.F[0], op.S), err
	}
	return "", fmt.Errorf("sim: %s is not an update op", op.Kind)
}

// createCuboid builds one cuboid from the op's dimensions through
// fixtures.NewCuboidOn, which returns a failed create's error where
// CreateRandomCuboid would panic, as a fault window must not. The id is taken
// before anything is created because it is the placement key — the whole
// graph goes to the shard it hashes to — so a create that fails half-way
// still consumes it, as in fixtures.CreateRandomCuboid.
func (g *geometry) createCuboid(a mutator, op Op) (gomdb.OID, error) {
	g.nextID++
	f := op.F
	oid, err := fixtures.NewCuboidOn(a, a.ShardFor(uint64(g.nextID)), g.nextID,
		f[0], f[1], f[2], f[3], f[4], f[5], g.mats[op.N%len(g.mats)], f[6])
	if err != nil {
		return 0, err
	}
	g.cuboids = append(g.cuboids, oid)
	return oid, nil
}

func (g *geometry) dropCuboid(oid gomdb.OID) {
	for i, c := range g.cuboids {
		if c == oid {
			g.cuboids = append(g.cuboids[:i], g.cuboids[i+1:]...)
			return
		}
	}
}

// generated is the OCB fixture: Params.Classes classes of Params.Instances
// objects each, class 0 carrying every catalog function. Streams over it
// never create or delete, so the per-class OID lists only change by resync.
// Under the router class 0 partitions by creation id and the deeper classes
// replicate (ocb.Populate).
type generated struct {
	p       ocb.Params
	base    *ocb.Base
	cat     []gmrSpec
	classes [][]gomdb.OID
}

func (f *generated) define(db *gomdb.Database) error { return ocb.Define(db, f.p) }

func (f *generated) populate(p shard.Placement, _ Plan) error {
	w, err := ocb.Populate(p, f.base)
	if err == nil {
		f.classes = w.Classes
	}
	return err
}

func (f *generated) catalog() []gmrSpec { return f.cat }
func (f *generated) roots() []gomdb.OID { return f.classes[0] }
func (f *generated) rootType() string   { return ocb.ClassName(0) }

func (f *generated) census() (string, int) {
	total := 0
	for _, list := range f.classes {
		total += len(list)
	}
	return "objects", total
}

func (f *generated) callArgs(op Op) ([]gomdb.Value, bool) {
	c0 := f.classes[0]
	return []gomdb.Value{gomdb.Ref(c0[op.X%len(c0)])}, true
}

func (f *generated) resync(b backend) {
	for c := range f.classes {
		f.classes[c] = b.Extension(ocb.ClassName(c))
	}
}

// mutate knows one op: set numeric attribute S of instance X of class N.
func (f *generated) mutate(a mutator, op Op, _ bool) string {
	if op.Kind != OpSetValue {
		return "skip " + string(op.Kind)
	}
	list := f.classes[op.N%f.p.Classes]
	oid := list[op.X%len(list)]
	return withErr(fmt.Sprintf("%s.%s=%g", oid, op.S, op.F[0]), a.Set(oid, op.S, gomdb.Float(op.F[0])))
}
