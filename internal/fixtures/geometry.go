// Package fixtures builds the two benchmark schemas of the paper's
// Section 7 — the computer-geometry Cuboid application and the
// personnel/project administration Company application — as GOM schemas over
// the public gomdb API. Tests, benchmarks, and the gomql shell share them.
package fixtures

import (
	"fmt"
	"math/rand"

	"gomdb"
	"gomdb/internal/lang"
	"gomdb/internal/shard"
)

// Materials available to the generator; SpecWeight values follow the paper's
// Figure 2 (iron 7.86, gold 19.0).
var Materials = []struct {
	Name       string
	SpecWeight float64
}{
	{"Iron", 7.86},
	{"Gold", 19.0},
	{"Copper", 8.96},
	{"Aluminium", 2.70},
}

// DefineGeometry installs the Cuboid schema of Figure 1: Vertex, Material,
// Robot, Cuboid, Workpieces, Valuables with the operations length, width,
// height, volume, weight, translate, scale, rotate, distance, total_volume,
// total_weight, total_value.
//
// With encapsulated=false every structural detail of Cuboid is public (the
// paper's "full generality" variant); with encapsulated=true the Cuboid
// representation is strictly encapsulated and the InvalidatedFct sets of
// Section 5.3 are declared: scale invalidates volume and weight, translate
// and rotate invalidate nothing.
func DefineGeometry(db *gomdb.Database, encapsulated bool) error {
	vertex := gomdb.NewTupleType("Vertex",
		gomdb.PubAttr("X", "float"),
		gomdb.PubAttr("Y", "float"),
		gomdb.PubAttr("Z", "float"),
	)
	if err := db.DefineType(vertex, "translate", "scale", "rotate", "dist"); err != nil {
		return err
	}
	material := gomdb.NewTupleType("Material",
		gomdb.PubAttr("Name", "string"),
		gomdb.PubAttr("SpecWeight", "float"),
	)
	if err := db.DefineType(material); err != nil {
		return err
	}
	// Robot is "defined elsewhere" in the paper; a position suffices for
	// the distance function.
	robot := gomdb.NewTupleType("Robot",
		gomdb.PubAttr("RName", "string"),
		gomdb.PubAttr("Pos", "Vertex"),
	)
	if err := db.DefineType(robot); err != nil {
		return err
	}
	var cuboidAttrs []gomdb.AttrDef
	mk := gomdb.Attr
	if !encapsulated {
		mk = gomdb.PubAttr
	}
	for i := 1; i <= 8; i++ {
		cuboidAttrs = append(cuboidAttrs, mk(fmt.Sprintf("V%d", i), "Vertex"))
	}
	cuboidAttrs = append(cuboidAttrs,
		mk("Mat", "Material"),
		mk("Value", "decimal"),
		gomdb.PubAttr("CuboidID", "int"),
	)
	cuboid := gomdb.NewTupleType("Cuboid", cuboidAttrs...)
	cuboid.StrictEncapsulated = encapsulated
	if err := db.DefineType(cuboid,
		"length", "width", "height", "volume", "weight",
		"rotate", "scale", "translate", "distance"); err != nil {
		return err
	}
	if err := db.DefineType(gomdb.NewSetType("Workpieces", "Cuboid"),
		"total_volume", "total_weight", "insert", "remove"); err != nil {
		return err
	}
	if err := db.DefineType(gomdb.NewSetType("Valuables", "Cuboid"),
		"total_value", "insert", "remove"); err != nil {
		return err
	}

	if err := defineVertexOps(db); err != nil {
		return err
	}
	if err := defineCuboidOps(db); err != nil {
		return err
	}
	if err := defineAggregateOps(db); err != nil {
		return err
	}

	if encapsulated {
		// Section 5.3: "the only operation that affects a materialized
		// volume is the operation scale. All other operations do not
		// invalidate the precomputed volume."
		db.Schema.DeclareInvalidatedFct("Cuboid", "scale", "Cuboid.volume", "Cuboid.weight",
			"Workpieces.total_volume", "Workpieces.total_weight")
		db.Schema.DeclareInvalidatedFct("Cuboid", "translate")
		db.Schema.DeclareInvalidatedFct("Cuboid", "rotate")
		// distance depends on vertex positions, so all three geometric
		// transformations invalidate it.
		db.Schema.DeclareInvalidatedFct("Cuboid", "scale", "Cuboid.distance")
		db.Schema.DeclareInvalidatedFct("Cuboid", "translate", "Cuboid.distance")
		db.Schema.DeclareInvalidatedFct("Cuboid", "rotate", "Cuboid.distance")
	}
	return nil
}

func defineVertexOps(db *gomdb.Database) error {
	self := lang.Self()
	v := lang.V
	a := lang.A
	// dist: Vertex -> float (Euclidean distance).
	dist := &lang.Function{
		Params:         []lang.Param{lang.Prm("self", "Vertex"), lang.Prm("v", "Vertex")},
		ResultType:     "float",
		SideEffectFree: true,
		Body: []lang.Stmt{
			lang.Let("dx", lang.Sub(a(self, "X"), a(v("v"), "X"))),
			lang.Let("dy", lang.Sub(a(self, "Y"), a(v("v"), "Y"))),
			lang.Let("dz", lang.Sub(a(self, "Z"), a(v("v"), "Z"))),
			lang.Ret(lang.Sqrt(lang.Add(lang.Add(
				lang.Mul(v("dx"), v("dx")),
				lang.Mul(v("dy"), v("dy"))),
				lang.Mul(v("dz"), v("dz"))))),
		},
	}
	if err := db.DefineOp("Vertex", "dist", dist); err != nil {
		return err
	}
	translate := &lang.Function{
		Params: []lang.Param{lang.Prm("self", "Vertex"), lang.Prm("t", "Vertex")},
		Body: []lang.Stmt{
			lang.SetA(self, "X", lang.Add(a(self, "X"), a(v("t"), "X"))),
			lang.SetA(self, "Y", lang.Add(a(self, "Y"), a(v("t"), "Y"))),
			lang.SetA(self, "Z", lang.Add(a(self, "Z"), a(v("t"), "Z"))),
		},
	}
	if err := db.DefineOp("Vertex", "translate", translate); err != nil {
		return err
	}
	scale := &lang.Function{
		Params: []lang.Param{lang.Prm("self", "Vertex"), lang.Prm("s", "Vertex")},
		Body: []lang.Stmt{
			lang.SetA(self, "X", lang.Mul(a(self, "X"), a(v("s"), "X"))),
			lang.SetA(self, "Y", lang.Mul(a(self, "Y"), a(v("s"), "Y"))),
			lang.SetA(self, "Z", lang.Mul(a(self, "Z"), a(v("s"), "Z"))),
		},
	}
	if err := db.DefineOp("Vertex", "scale", scale); err != nil {
		return err
	}
	// rotate: float, char -> void. Rotation about the named axis; all three
	// coordinates are rewritten, so one Cuboid rotation performs 24
	// elementary vertex updates, 12 of which touch the vertices relevant to
	// a materialized volume — matching the paper's "12 (!) invalidations".
	rotate := &lang.Function{
		Params: []lang.Param{lang.Prm("self", "Vertex"), lang.Prm("angle", "float"), lang.Prm("axis", "string")},
		Body: []lang.Stmt{
			lang.Let("c", lang.Cos(v("angle"))),
			lang.Let("s", lang.Sin(v("angle"))),
			lang.Let("x", a(self, "X")),
			lang.Let("y", a(self, "Y")),
			lang.Let("z", a(self, "Z")),
			lang.When(lang.Eq(v("axis"), lang.S("z")),
				[]lang.Stmt{
					lang.SetA(self, "X", lang.Sub(lang.Mul(v("x"), v("c")), lang.Mul(v("y"), v("s")))),
					lang.SetA(self, "Y", lang.Add(lang.Mul(v("x"), v("s")), lang.Mul(v("y"), v("c")))),
					lang.SetA(self, "Z", v("z")),
				},
				lang.When(lang.Eq(v("axis"), lang.S("y")),
					[]lang.Stmt{
						lang.SetA(self, "X", lang.Add(lang.Mul(v("x"), v("c")), lang.Mul(v("z"), v("s")))),
						lang.SetA(self, "Y", v("y")),
						lang.SetA(self, "Z", lang.Sub(lang.Mul(v("z"), v("c")), lang.Mul(v("x"), v("s")))),
					},
					lang.SetA(self, "X", v("x")),
					lang.SetA(self, "Y", lang.Sub(lang.Mul(v("y"), v("c")), lang.Mul(v("z"), v("s")))),
					lang.SetA(self, "Z", lang.Add(lang.Mul(v("y"), v("s")), lang.Mul(v("z"), v("c")))),
				),
			),
		},
	}
	return db.DefineOp("Vertex", "rotate", rotate)
}

func defineCuboidOps(db *gomdb.Database) error {
	self := lang.Self()
	a := lang.A
	v := lang.V
	edge := func(to string) *lang.Function {
		return &lang.Function{
			Params:         []lang.Param{lang.Prm("self", "Cuboid")},
			ResultType:     "float",
			SideEffectFree: true,
			Body: []lang.Stmt{
				// delegate the computation to Vertex V1 (Figure 1).
				lang.Ret(lang.CallFn("Vertex.dist", a(self, "V1"), a(self, to))),
			},
		}
	}
	if err := db.DefineOp("Cuboid", "length", edge("V2")); err != nil {
		return err
	}
	if err := db.DefineOp("Cuboid", "width", edge("V4")); err != nil {
		return err
	}
	if err := db.DefineOp("Cuboid", "height", edge("V5")); err != nil {
		return err
	}
	volume := &lang.Function{
		Params:         []lang.Param{lang.Prm("self", "Cuboid")},
		ResultType:     "float",
		SideEffectFree: true,
		Body: []lang.Stmt{
			lang.Ret(lang.Mul(lang.Mul(
				lang.CallFn("Cuboid.length", self),
				lang.CallFn("Cuboid.width", self)),
				lang.CallFn("Cuboid.height", self))),
		},
	}
	if err := db.DefineOp("Cuboid", "volume", volume); err != nil {
		return err
	}
	weight := &lang.Function{
		Params:         []lang.Param{lang.Prm("self", "Cuboid")},
		ResultType:     "float",
		SideEffectFree: true,
		Body: []lang.Stmt{
			lang.Ret(lang.Mul(lang.CallFn("Cuboid.volume", self), a(self, "Mat", "SpecWeight"))),
		},
	}
	if err := db.DefineOp("Cuboid", "weight", weight); err != nil {
		return err
	}
	// The geometric transformations delegate to the eight boundary vertices.
	delegate := func(op string, extra ...lang.Param) *lang.Function {
		params := append([]lang.Param{lang.Prm("self", "Cuboid")}, extra...)
		var body []lang.Stmt
		for i := 1; i <= 8; i++ {
			args := []lang.Expr{a(self, fmt.Sprintf("V%d", i))}
			for _, p := range extra {
				args = append(args, v(p.Name))
			}
			body = append(body, lang.Do(lang.CallFn("Vertex."+op, args...)))
		}
		return &lang.Function{Params: params, Body: body}
	}
	if err := db.DefineOp("Cuboid", "translate", delegate("translate", lang.Prm("t", "Vertex"))); err != nil {
		return err
	}
	if err := db.DefineOp("Cuboid", "scale", delegate("scale", lang.Prm("s", "Vertex"))); err != nil {
		return err
	}
	if err := db.DefineOp("Cuboid", "rotate", delegate("rotate", lang.Prm("angle", "float"), lang.Prm("axis", "string"))); err != nil {
		return err
	}
	distance := &lang.Function{
		Params:         []lang.Param{lang.Prm("self", "Cuboid"), lang.Prm("r", "Robot")},
		ResultType:     "float",
		SideEffectFree: true,
		Body: []lang.Stmt{
			lang.Ret(lang.CallFn("Vertex.dist", a(self, "V1"), a(v("r"), "Pos"))),
		},
	}
	return db.DefineOp("Cuboid", "distance", distance)
}

func defineAggregateOps(db *gomdb.Database) error {
	self := lang.Self()
	sumOf := func(recvType string, elemExpr func(lang.Expr) lang.Expr) *lang.Function {
		return &lang.Function{
			Params:         []lang.Param{lang.Prm("self", recvType)},
			ResultType:     "float",
			SideEffectFree: true,
			Body: []lang.Stmt{
				lang.Let("s", lang.F(0)),
				lang.Each("c", self,
					lang.Let("s", lang.Add(lang.V("s"), elemExpr(lang.V("c"))))),
				lang.Ret(lang.V("s")),
			},
		}
	}
	if err := db.DefineOp("Workpieces", "total_volume",
		sumOf("Workpieces", func(c lang.Expr) lang.Expr { return lang.CallFn("Cuboid.volume", c) })); err != nil {
		return err
	}
	if err := db.DefineOp("Workpieces", "total_weight",
		sumOf("Workpieces", func(c lang.Expr) lang.Expr { return lang.CallFn("Cuboid.weight", c) })); err != nil {
		return err
	}
	return db.DefineOp("Valuables", "total_value",
		sumOf("Valuables", func(c lang.Expr) lang.Expr { return lang.A(c, "Value") }))
}

// NewVertex creates a Vertex instance.
func NewVertex(db *gomdb.Database, x, y, z float64) gomdb.OID {
	return db.MustNew("Vertex", gomdb.Float(x), gomdb.Float(y), gomdb.Float(z))
}

// NewCuboid creates a Cuboid and its eight boundary vertices on db
// (NewCuboidOn), panicking on error.
func NewCuboid(db *gomdb.Database, id int64, ox, oy, oz, l, w, h float64, mat gomdb.OID, value float64) gomdb.OID {
	oid, err := NewCuboidOn(shard.Single(db), 0, id, ox, oy, oz, l, w, h, mat, value)
	if err != nil {
		panic(err)
	}
	return oid
}

// creator is what NewCuboidOn creates through: a Placement, or a router
// batch's *shard.Tx.
type creator interface {
	NewOn(sh int, typeName string, attrs ...gomdb.Value) (gomdb.OID, error)
}

// NewCuboidOn creates a Cuboid at origin (ox, oy, oz) with extents (l, w, h)
// on shard sh: first its eight boundary vertices in the standard corner
// order — V2 = V1 + length·x̂, V4 = V1 + width·ŷ, V5 = V1 + height·ẑ — then
// the cuboid with the given material, value and user-supplied CuboidID. It
// stops at the first create that fails and returns its error.
func NewCuboidOn(c creator, sh int, id int64, ox, oy, oz, l, w, h float64, mat gomdb.OID, value float64) (gomdb.OID, error) {
	corners := [8][3]float64{
		{ox, oy, oz},             // V1
		{ox + l, oy, oz},         // V2
		{ox + l, oy + w, oz},     // V3
		{ox, oy + w, oz},         // V4
		{ox, oy, oz + h},         // V5
		{ox + l, oy, oz + h},     // V6
		{ox + l, oy + w, oz + h}, // V7
		{ox, oy + w, oz + h},     // V8
	}
	attrs := make([]gomdb.Value, 0, 11)
	for _, v := range corners {
		oid, err := c.NewOn(sh, "Vertex", gomdb.Float(v[0]), gomdb.Float(v[1]), gomdb.Float(v[2]))
		if err != nil {
			return 0, err
		}
		attrs = append(attrs, gomdb.Ref(oid))
	}
	attrs = append(attrs, gomdb.Ref(mat), gomdb.Float(value), gomdb.Int(id))
	return c.NewOn(sh, "Cuboid", attrs...)
}

// Geometry is a populated Cuboid database, on one engine or spread over the
// shards of a router.
type Geometry struct {
	Cuboids   []gomdb.OID
	ByID      map[int64]gomdb.OID // the CuboidID index of the paper's footnote 8
	MaterialO []gomdb.OID
	Robots    []gomdb.OID
	NextID    int64
	at        shard.Placement
	db        *gomdb.Database // the engine of a one-engine base, nil under the router
	rng       *rand.Rand
}

// PopulateGeometry creates the geometry base of PopulateGeometryOn on one
// engine.
func PopulateGeometry(db *gomdb.Database, n int, seed int64) (*Geometry, error) {
	g, err := PopulateGeometryOn(shard.Single(db), n, seed)
	if err != nil {
		return nil, err
	}
	g.db = db
	return g, nil
}

// PopulateGeometryOn creates, through p, the material catalogue, two robots
// and n Cuboid instances, each with 8 vertices and a material reference, as
// in the paper's 8000-cuboid database. Materials and robots (with their Pos
// vertices) are shared reference data every cuboid's weight and distance
// computations read, so they are replicated; each cuboid graph is
// co-located on the shard its CuboidID hashes to. The creation order does
// not depend on p, so under the router's shared OID allocator the same
// population has the same OIDs, and the same record bytes, at every shard
// count.
func PopulateGeometryOn(p shard.Placement, n int, seed int64) (*Geometry, error) {
	g := &Geometry{
		at:   p,
		ByID: make(map[int64]gomdb.OID, n),
		rng:  rand.New(rand.NewSource(seed)),
	}
	for _, m := range Materials {
		oid, err := p.NewReplicated("Material", gomdb.Str(m.Name), gomdb.Float(m.SpecWeight))
		if err != nil {
			return nil, err
		}
		g.MaterialO = append(g.MaterialO, oid)
	}
	for i := 0; i < 2; i++ {
		pos, err := p.NewReplicated("Vertex", gomdb.Float(float64(100+i*50)), gomdb.Float(0), gomdb.Float(0))
		if err != nil {
			return nil, err
		}
		oid, err := p.NewReplicated("Robot", gomdb.Str(fmt.Sprintf("R%d", i+1)), gomdb.Ref(pos))
		if err != nil {
			return nil, err
		}
		g.Robots = append(g.Robots, oid)
	}
	for i := 0; i < n; i++ {
		if _, err := g.createRandomCuboid(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// CreateRandomCuboid creates one Cuboid of randomly chosen dimensions (the
// benchmark's I operation) and registers it in the CuboidID index. It
// panics if a create fails.
func (g *Geometry) CreateRandomCuboid() gomdb.OID {
	oid, err := g.createRandomCuboid()
	if err != nil {
		panic(err)
	}
	return oid
}

func (g *Geometry) createRandomCuboid() (gomdb.OID, error) {
	g.NextID++
	id := g.NextID
	l := 1 + g.rng.Float64()*9
	w := 1 + g.rng.Float64()*9
	h := 1 + g.rng.Float64()*9
	mat := g.MaterialO[g.rng.Intn(len(g.MaterialO))]
	val := 10 + g.rng.Float64()*90
	sh := g.at.ShardFor(uint64(id))
	oid, err := NewCuboidOn(g.at, sh, id, g.rng.Float64()*100, g.rng.Float64()*100, g.rng.Float64()*100, l, w, h, mat, val)
	if err != nil {
		return 0, err
	}
	g.Cuboids = append(g.Cuboids, oid)
	g.ByID[id] = oid
	return oid, nil
}

// RandomCuboid returns a uniformly chosen live cuboid.
func (g *Geometry) RandomCuboid() gomdb.OID {
	return g.Cuboids[g.rng.Intn(len(g.Cuboids))]
}

// DeleteRandomCuboid removes a random cuboid (the D operation) from a
// one-engine base.
func (g *Geometry) DeleteRandomCuboid() error {
	if len(g.Cuboids) == 0 {
		return nil
	}
	i := g.rng.Intn(len(g.Cuboids))
	oid := g.Cuboids[i]
	g.Cuboids[i] = g.Cuboids[len(g.Cuboids)-1]
	g.Cuboids = g.Cuboids[:len(g.Cuboids)-1]
	o, err := g.db.Objects.Get(oid)
	if err != nil {
		return err
	}
	idIdx := g.db.Objects.AttrIndex("Cuboid", "CuboidID")
	delete(g.ByID, o.Attrs[idIdx].I)
	return g.db.Delete(oid)
}

// Rng exposes the generator's random stream so operation mixes draw from the
// same deterministic sequence.
func (g *Geometry) Rng() *rand.Rand { return g.rng }

// ExampleGeometry builds the exact three-cuboid database of the paper's
// Figure 2 / Section 3.1 example: two iron cuboids with volumes 300 and 200
// (weights 2358 and 1572) and one gold cuboid with volume 100 (weight 1900).
func ExampleGeometry(db *gomdb.Database) (*Geometry, error) {
	g := &Geometry{at: shard.Single(db), db: db, ByID: make(map[int64]gomdb.OID), rng: rand.New(rand.NewSource(1))}
	iron, err := db.New("Material", gomdb.Str("Iron"), gomdb.Float(7.86))
	if err != nil {
		return nil, err
	}
	gold, err := db.New("Material", gomdb.Str("Gold"), gomdb.Float(19.0))
	if err != nil {
		return nil, err
	}
	g.MaterialO = []gomdb.OID{iron, gold}
	dims := []struct {
		l, w, h float64
		mat     gomdb.OID
		value   float64
	}{
		{10, 6, 5, iron, 39.99}, // volume 300, weight 2358
		{10, 5, 4, iron, 19.95}, // volume 200, weight 1572
		{5, 5, 4, gold, 89.90},  // volume 100, weight 1900
	}
	for i, d := range dims {
		g.NextID = int64(i + 1)
		oid := NewCuboid(db, g.NextID, 0, 0, 0, d.l, d.w, d.h, d.mat, d.value)
		g.Cuboids = append(g.Cuboids, oid)
		g.ByID[g.NextID] = oid
	}
	return g, nil
}
