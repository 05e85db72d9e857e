// Package lang implements GOMpl, the small operation-body language of this
// GOM reproduction. Operation and function bodies are abstract syntax trees
// built programmatically (the schema layer attaches them to types); the
// package provides
//
//   - an evaluator (compile.go, eval.go) that compiles each body once into
//     closures over slot-indexed frames and executes it against the object
//     base through a Runtime interface, through which the GMR manager
//     records every accessed object to maintain the Reverse Reference
//     Relation, and
//   - the static path-extraction analysis of the paper's Appendix
//     (extract.go) that computes the relevant path expressions — and from
//     them RelAttr(f) (Definition 5.1) — directly from function bodies.
//
// Bodies stay syntax trees, compiled on first evaluation rather than by a
// schema compiler ahead of time; it is what makes both dynamic access
// tracking and static analysis possible in one place.
package lang

import (
	"fmt"
	"strings"
	"sync/atomic"

	"gomdb/internal/object"
)

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpIn // set/list membership
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpIn:
		return "in"
	}
	return "?"
}

// Expr is a GOMpl expression.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Stmt is a GOMpl statement.
type Stmt interface {
	fmt.Stringer
	stmtNode()
}

// Lit is a literal value.
type Lit struct{ Val object.Value }

// Var references a parameter or local variable. The receiver of a
// type-associated operation is the variable "self".
type Var struct{ Name string }

// Attr reads attribute Attr of the object denoted by Recv — the implicit
// built-in read operation A of Section 2.
type Attr struct {
	Recv Expr
	Name string
}

// Call invokes a declared function or operation. Fn is either a qualified
// name "Type.op" or an unqualified global function name; for type-associated
// operations Args[0] is the receiver.
type Call struct {
	Fn   string
	Args []Expr
}

// Builtin invokes a built-in pure function (sqrt, abs, min, max, len, count).
type Builtin struct {
	Name string
	Args []Expr
}

// Bin is a binary operation.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Un is unary negation (arithmetic "-" or boolean "not").
type Un struct {
	Op string // "-" or "not"
	E  Expr
}

// MkTuple constructs a transient tuple value of a named tuple type; the
// company benchmark's matrix function builds MatrixLine tuples this way.
type MkTuple struct {
	TypeName string
	Fields   []Expr
}

// MkSet constructs a transient set value from element expressions.
type MkSet struct{ Elems []Expr }

// Elems evaluates to the transient set of elements of a set- or
// list-structured object (dereferencing a Ref); on transient collections it
// is the identity. Reading the elements counts as an access to the
// collection object for RRR purposes.
type Elems struct{ Coll Expr }

func (Lit) exprNode()     {}
func (Var) exprNode()     {}
func (Attr) exprNode()    {}
func (Call) exprNode()    {}
func (Builtin) exprNode() {}
func (Bin) exprNode()     {}
func (Un) exprNode()      {}
func (MkTuple) exprNode() {}
func (MkSet) exprNode()   {}
func (Elems) exprNode()   {}

func (e Lit) String() string  { return e.Val.String() }
func (e Var) String() string  { return e.Name }
func (e Attr) String() string { return e.Recv.String() + "." + e.Name }
func (e Call) String() string {
	return e.Fn + "(" + joinExprs(e.Args) + ")"
}
func (e Builtin) String() string { return e.Name + "(" + joinExprs(e.Args) + ")" }
func (e Bin) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}
func (e Un) String() string      { return e.Op + "(" + e.E.String() + ")" }
func (e MkTuple) String() string { return e.TypeName + "[" + joinExprs(e.Fields) + "]" }
func (e MkSet) String() string   { return "{" + joinExprs(e.Elems) + "}" }
func (e Elems) String() string   { return "elems(" + e.Coll.String() + ")" }

func joinExprs(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// Assign binds a local variable: v := e.
type Assign struct {
	Var string
	E   Expr
}

// SetAttr is the elementary update operation t.set_A: recv.A := e.
type SetAttr struct {
	Recv Expr
	Name string
	E    Expr
}

// Insert is the elementary update t.insert on a set-structured object.
type Insert struct {
	Recv Expr
	E    Expr
}

// Remove is the elementary update t.remove on a set-structured object.
type Remove struct {
	Recv Expr
	E    Expr
}

// If is a conditional statement.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// ForEach iterates the elements of a set- or list-structured object or a
// transient collection, binding each element to Var.
type ForEach struct {
	Var  string
	Coll Expr
	Body []Stmt
}

// Return terminates the function with the value of E (nil E returns null).
type Return struct{ E Expr }

// ExprStmt evaluates E for its effects (typically a Call on an updating
// operation).
type ExprStmt struct{ E Expr }

func (Assign) stmtNode()   {}
func (SetAttr) stmtNode()  {}
func (Insert) stmtNode()   {}
func (Remove) stmtNode()   {}
func (If) stmtNode()       {}
func (ForEach) stmtNode()  {}
func (Return) stmtNode()   {}
func (ExprStmt) stmtNode() {}

func (s Assign) String() string { return s.Var + " := " + s.E.String() }
func (s SetAttr) String() string {
	return s.Recv.String() + ".set_" + s.Name + "(" + s.E.String() + ")"
}
func (s Insert) String() string { return s.Recv.String() + ".insert(" + s.E.String() + ")" }
func (s Remove) String() string { return s.Recv.String() + ".remove(" + s.E.String() + ")" }
func (s If) String() string {
	out := "if " + s.Cond.String() + " then " + joinStmts(s.Then)
	if len(s.Else) > 0 {
		out += " else " + joinStmts(s.Else)
	}
	return out
}
func (s ForEach) String() string {
	return "foreach " + s.Var + " in " + s.Coll.String() + " do " + joinStmts(s.Body)
}
func (s Return) String() string {
	if s.E == nil {
		return "return"
	}
	return "return " + s.E.String()
}
func (s ExprStmt) String() string { return s.E.String() }

func joinStmts(ss []Stmt) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}

// Param is a formal parameter of a function.
type Param struct {
	Name string
	Type string
}

// Function is a declared GOMpl function or type-associated operation.
// Type-associated operations take the receiver as first parameter, named
// "self" by convention (the schema layer enforces it).
type Function struct {
	// Name is the qualified identifier, e.g. "Cuboid.volume" for operations
	// or a plain name for free functions.
	Name       string
	Params     []Param
	ResultType string
	Body       []Stmt

	// SideEffectFree declares the function free of updates; only such
	// functions are materializable (Definition 3.1 requires it).
	SideEffectFree bool

	// code is the compiled body, built by the first Eval (compile.go). A
	// Function is evaluated as it was when first evaluated.
	code atomic.Pointer[compiled]
}

// ParamTypes returns the parameter type names.
func (f *Function) ParamTypes() []string {
	out := make([]string, len(f.Params))
	for i, p := range f.Params {
		out[i] = p.Type
	}
	return out
}

// Convenience constructors keep programmatically built bodies readable.

// Self returns the receiver variable.
func Self() Expr { return Var{Name: "self"} }

// V returns a variable reference.
func V(name string) Expr { return Var{Name: name} }

// A returns self.attr... chained attribute access over a base expression.
func A(recv Expr, attrs ...string) Expr {
	e := recv
	for _, a := range attrs {
		e = Attr{Recv: e, Name: a}
	}
	return e
}

// F returns a float literal.
func F(f float64) Expr { return Lit{Val: object.Float(f)} }

// I returns an int literal.
func I(i int64) Expr { return Lit{Val: object.Int(i)} }

// S returns a string literal.
func S(s string) Expr { return Lit{Val: object.String_(s)} }

// B returns a bool literal.
func B(b bool) Expr { return Lit{Val: object.Bool(b)} }

// Mul builds a multiplication node.
func Mul(l, r Expr) Expr { return Bin{Op: OpMul, L: l, R: r} }

// Add builds an addition node.
func Add(l, r Expr) Expr { return Bin{Op: OpAdd, L: l, R: r} }

// Sub builds a subtraction node.
func Sub(l, r Expr) Expr { return Bin{Op: OpSub, L: l, R: r} }

// Div builds a division node.
func Div(l, r Expr) Expr { return Bin{Op: OpDiv, L: l, R: r} }

// Lt builds a less-than comparison.
func Lt(l, r Expr) Expr { return Bin{Op: OpLt, L: l, R: r} }

// Le builds a less-or-equal comparison.
func Le(l, r Expr) Expr { return Bin{Op: OpLe, L: l, R: r} }

// Gt builds a greater-than comparison.
func Gt(l, r Expr) Expr { return Bin{Op: OpGt, L: l, R: r} }

// Ge builds a greater-or-equal comparison.
func Ge(l, r Expr) Expr { return Bin{Op: OpGe, L: l, R: r} }

// Eq builds an equality comparison.
func Eq(l, r Expr) Expr { return Bin{Op: OpEq, L: l, R: r} }

// Ne builds a disequality comparison.
func Ne(l, r Expr) Expr { return Bin{Op: OpNe, L: l, R: r} }

// And builds a short-circuit conjunction.
func And(l, r Expr) Expr { return Bin{Op: OpAnd, L: l, R: r} }

// Or builds a short-circuit disjunction.
func Or(l, r Expr) Expr { return Bin{Op: OpOr, L: l, R: r} }

// CallFn builds a call node.
func CallFn(fn string, args ...Expr) Expr { return Call{Fn: fn, Args: args} }

// Sqrt builds a sqrt builtin call.
func Sqrt(e Expr) Expr { return Builtin{Name: "sqrt", Args: []Expr{e}} }

// Sin builds a sin builtin call.
func Sin(e Expr) Expr { return Builtin{Name: "sin", Args: []Expr{e}} }

// Cos builds a cos builtin call.
func Cos(e Expr) Expr { return Builtin{Name: "cos", Args: []Expr{e}} }

// Count builds a count builtin call.
func Count(e Expr) Expr { return Builtin{Name: "count", Args: []Expr{e}} }

// Union builds a union builtin call: union(set, elem).
func Union(set, elem Expr) Expr { return Builtin{Name: "union", Args: []Expr{set, elem}} }

// In builds a membership test: elem in coll.
func In(elem, coll Expr) Expr { return Bin{Op: OpIn, L: elem, R: coll} }

// ElemsOf builds an Elems node: the element set of a collection object.
func ElemsOf(coll Expr) Expr { return Elems{Coll: coll} }

// Tup builds a MkTuple node.
func Tup(typeName string, fields ...Expr) Expr { return MkTuple{TypeName: typeName, Fields: fields} }

// EmptySet builds an empty transient set literal.
func EmptySet() Expr { return MkSet{} }

// Prm declares a formal parameter.
func Prm(name, typ string) Param { return Param{Name: name, Type: typ} }

// Let builds an assignment statement: name := e.
func Let(name string, e Expr) Stmt { return Assign{Var: name, E: e} }

// SetA builds the elementary update statement recv.set_attr(e).
func SetA(recv Expr, attr string, e Expr) Stmt { return SetAttr{Recv: recv, Name: attr, E: e} }

// InsertInto builds the elementary update statement recv.insert(e).
func InsertInto(recv, e Expr) Stmt { return Insert{Recv: recv, E: e} }

// RemoveFrom builds the elementary update statement recv.remove(e).
func RemoveFrom(recv, e Expr) Stmt { return Remove{Recv: recv, E: e} }

// Ret builds a return statement.
func Ret(e Expr) Stmt { return Return{E: e} }

// Do builds an expression statement (evaluate for effect).
func Do(e Expr) Stmt { return ExprStmt{E: e} }

// Each builds a foreach statement.
func Each(v string, coll Expr, body ...Stmt) Stmt {
	return ForEach{Var: v, Coll: coll, Body: body}
}

// When builds a conditional statement.
func When(cond Expr, then []Stmt, els ...Stmt) Stmt {
	return If{Cond: cond, Then: then, Else: els}
}
