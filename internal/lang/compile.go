package lang

import (
	"fmt"
	"sync"

	"gomdb/internal/object"
)

// The evaluator compiles each Function once, on its first evaluation, into a
// tree of closures over a frame of slot-indexed values, the way GOM's schema
// compiler turned bodies into code. The closures follow the body's syntax
// tree node for node, so evaluation order, errors and charges are those of
// the tree-walking definition the tests keep (oracle_test.go); what the
// compilation removes is the interpretation: no name lookups, no Value
// returned through every level, no argument slice per call.
//
// Frame layout. A frame holds the variables, one slot per name the body
// binds or reads (parameters first), each with a bound bit, and the
// temporaries: slot 0 of them receives the returned value, the others the
// intermediate results of expressions. A temporary is assigned at compile
// time, stack-wise: an expression node writes its result into the slot it
// was compiled for and its operands into slots above the ones its ancestors
// still need. The arguments of a call or builtin are evaluated into adjacent
// temporaries, and the callee is handed that subslice: it is borrowed for
// the call only (Runtime.CallFunction must neither keep nor grow it).
//
// Charges. Every statement and every expression node charges 1, as the
// definition does. The frame counts them and hands them to the Runtime as
// one Charge before every other Runtime call and before Eval returns, so the
// simulated clock reads the same at every point outside this package.
//
// Frames are taken from the compiled function's pool, one per evaluation,
// and returned cleared: evaluations of one function run concurrently on the
// shared read tier, and nested or recursive calls each get their own frame.

// compiled is a Function lowered for evaluation.
type compiled struct {
	params []int // the variable slot of each parameter
	body   stmtFn
	frames sync.Pool
}

// frame is the state of one evaluation.
type frame struct {
	rt     Runtime
	vars   []object.Value
	bound  []bool
	tmp    []object.Value
	charge int64
}

// exprFn evaluates an expression node into the temporary it was compiled for.
type exprFn func(fr *frame) error

// stmtFn executes a statement or a block; true means the function returned.
type stmtFn func(fr *frame) (bool, error)

// retSlot is the temporary that receives the function's result.
const retSlot = 0

// flush hands the counted charges to the Runtime.
func (fr *frame) flush() {
	if fr.charge != 0 {
		fr.rt.Charge(fr.charge)
		fr.charge = 0
	}
}

// args returns the n temporaries from base on as a borrowed argument list
// whose capacity ends with it.
func (fr *frame) args(base, n int) []object.Value {
	return fr.tmp[base : base+n : base+n]
}

// Eval executes fn with the given arguments and returns its result. The
// arguments are copied into the evaluation's frame: Eval keeps nothing of
// args.
func Eval(rt Runtime, fn *Function, args []object.Value) (object.Value, error) {
	if len(args) != len(fn.Params) {
		return object.Null(), fmt.Errorf("lang: %s expects %d arguments, got %d", fn.Name, len(fn.Params), len(args))
	}
	c := fn.code.Load()
	if c == nil {
		c = compile(fn)
		if !fn.code.CompareAndSwap(nil, c) {
			c = fn.code.Load()
		}
	}
	fr := c.frames.Get().(*frame)
	fr.rt = rt
	for i, s := range c.params {
		fr.vars[s] = args[i]
		fr.bound[s] = true
	}
	returned, err := c.body(fr)
	fr.flush()
	var v object.Value
	if returned && err == nil {
		v = fr.tmp[retSlot]
	}
	fr.rt = nil
	clear(fr.vars)
	clear(fr.bound)
	clear(fr.tmp)
	c.frames.Put(fr)
	if err != nil {
		return object.Null(), fmt.Errorf("lang: in %s: %w", fn.Name, err)
	}
	return v, nil
}

// compiler holds the slot assignment while a function is lowered.
type compiler struct {
	vars map[string]int
	next int // first free temporary
	max  int // temporaries used
}

// compile lowers fn.
func compile(fn *Function) *compiled {
	cc := &compiler{vars: make(map[string]int), next: retSlot + 1, max: retSlot + 1}
	c := &compiled{params: make([]int, len(fn.Params))}
	for i, p := range fn.Params {
		c.params[i] = cc.variable(p.Name)
	}
	c.body = cc.block(fn.Body)
	nvars, ntmp := len(cc.vars), cc.max
	c.frames.New = func() any {
		vals := make([]object.Value, nvars+ntmp)
		return &frame{vars: vals[:nvars:nvars], bound: make([]bool, nvars), tmp: vals[nvars:]}
	}
	return c
}

// variable returns the slot of a variable name.
func (cc *compiler) variable(name string) int {
	s, ok := cc.vars[name]
	if !ok {
		s = len(cc.vars)
		cc.vars[name] = s
	}
	return s
}

// alloc reserves n adjacent temporaries and returns the first; release
// frees them and every temporary reserved after them.
func (cc *compiler) alloc(n int) int {
	base := cc.next
	cc.next += n
	cc.max = max(cc.max, cc.next)
	return base
}

func (cc *compiler) release(base int) { cc.next = base }

// block compiles a statement list; each statement charges 1 before it runs.
func (cc *compiler) block(stmts []Stmt) stmtFn {
	fns := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		fns[i] = cc.stmt(s)
	}
	if len(fns) == 1 {
		s := fns[0]
		return func(fr *frame) (bool, error) {
			fr.charge++
			return s(fr)
		}
	}
	return func(fr *frame) (bool, error) {
		for _, s := range fns {
			fr.charge++
			if ret, err := s(fr); err != nil || ret {
				return ret, err
			}
		}
		return false, nil
	}
}

// operands compiles exprs into adjacent temporaries and returns the first.
// The temporaries stay reserved; the caller releases them.
func (cc *compiler) operands(exprs []Expr) (int, []exprFn) {
	base := cc.alloc(len(exprs))
	fns := make([]exprFn, len(exprs))
	for i, e := range exprs {
		fns[i] = cc.expr(e, base+i)
	}
	return base, fns
}

// evalAll runs fns in order.
func evalAll(fr *frame, fns []exprFn) error {
	for _, f := range fns {
		if err := f(fr); err != nil {
			return err
		}
	}
	return nil
}

func (cc *compiler) stmt(s Stmt) stmtFn {
	switch st := s.(type) {
	case Assign:
		t := cc.alloc(1)
		e := cc.expr(st.E, t)
		cc.release(t)
		v := cc.variable(st.Var)
		return func(fr *frame) (bool, error) {
			if err := e(fr); err != nil {
				return false, err
			}
			fr.vars[v] = fr.tmp[t]
			fr.bound[v] = true
			return false, nil
		}
	case SetAttr:
		base, ops := cc.operands([]Expr{st.Recv, st.E})
		cc.release(base)
		name := st.Name
		return func(fr *frame) (bool, error) {
			if err := evalAll(fr, ops); err != nil {
				return false, err
			}
			fr.flush()
			return false, fr.rt.SetAttr(fr.tmp[base], name, fr.tmp[base+1])
		}
	case Insert:
		base, ops := cc.operands([]Expr{st.Recv, st.E})
		cc.release(base)
		return func(fr *frame) (bool, error) {
			if err := evalAll(fr, ops); err != nil {
				return false, err
			}
			fr.flush()
			return false, fr.rt.InsertElem(fr.tmp[base], fr.tmp[base+1])
		}
	case Remove:
		base, ops := cc.operands([]Expr{st.Recv, st.E})
		cc.release(base)
		return func(fr *frame) (bool, error) {
			if err := evalAll(fr, ops); err != nil {
				return false, err
			}
			fr.flush()
			return false, fr.rt.RemoveElem(fr.tmp[base], fr.tmp[base+1])
		}
	case If:
		t := cc.alloc(1)
		cond := cc.expr(st.Cond, t)
		cc.release(t)
		then, els := cc.block(st.Then), cc.block(st.Else)
		return func(fr *frame) (bool, error) {
			if err := cond(fr); err != nil {
				return false, err
			}
			if fr.tmp[t].Truth() {
				return then(fr)
			}
			return els(fr)
		}
	case ForEach:
		t := cc.alloc(1)
		coll := cc.expr(st.Coll, t)
		cc.release(t)
		v := cc.variable(st.Var)
		body := cc.block(st.Body)
		return func(fr *frame) (bool, error) {
			if err := coll(fr); err != nil {
				return false, err
			}
			fr.flush()
			elems, err := fr.rt.ReadElems(fr.tmp[t])
			if err != nil {
				return false, err
			}
			saved, had := fr.vars[v], fr.bound[v]
			for i := range elems {
				fr.vars[v], fr.bound[v] = elems[i], true
				if ret, err := body(fr); err != nil || ret {
					return ret, err
				}
			}
			if had {
				fr.vars[v] = saved
			} else {
				fr.vars[v], fr.bound[v] = object.Value{}, false
			}
			return false, nil
		}
	case Return:
		if st.E == nil {
			return func(fr *frame) (bool, error) {
				fr.tmp[retSlot] = object.Null()
				return true, nil
			}
		}
		e := cc.expr(st.E, retSlot)
		return func(fr *frame) (bool, error) {
			return true, e(fr)
		}
	case ExprStmt:
		t := cc.alloc(1)
		e := cc.expr(st.E, t)
		cc.release(t)
		return func(fr *frame) (bool, error) {
			return false, e(fr)
		}
	}
	err := fmt.Errorf("unknown statement %T", s)
	return func(*frame) (bool, error) { return false, err }
}

// expr compiles e to write its value into temporary dst. Every node charges
// 1 before its operands run.
func (cc *compiler) expr(e Expr, dst int) exprFn {
	switch ex := e.(type) {
	case Lit:
		val := ex.Val
		return func(fr *frame) error {
			fr.charge++
			fr.tmp[dst] = val
			return nil
		}
	case Var:
		v, name := cc.variable(ex.Name), ex.Name
		return func(fr *frame) error {
			fr.charge++
			if !fr.bound[v] {
				return fmt.Errorf("unbound variable %q", name)
			}
			fr.tmp[dst] = fr.vars[v]
			return nil
		}
	case Attr:
		recv, name := cc.expr(ex.Recv, dst), ex.Name
		return func(fr *frame) error {
			fr.charge++
			if err := recv(fr); err != nil {
				return err
			}
			fr.flush()
			v, err := fr.rt.ReadAttr(fr.tmp[dst], name)
			if err != nil {
				return err
			}
			fr.tmp[dst] = v
			return nil
		}
	case Call:
		base, ops := cc.operands(ex.Args)
		cc.release(base)
		name, n := ex.Fn, len(ex.Args)
		return func(fr *frame) error {
			fr.charge++
			if err := evalAll(fr, ops); err != nil {
				return err
			}
			fr.flush()
			v, err := fr.rt.CallFunction(name, fr.args(base, n))
			if err != nil {
				return err
			}
			fr.tmp[dst] = v
			return nil
		}
	case Builtin:
		base, ops := cc.operands(ex.Args)
		cc.release(base)
		name, n := ex.Name, len(ex.Args)
		// count and len read a referenced collection through the Runtime.
		reads := name == "count" || name == "len"
		return func(fr *frame) error {
			fr.charge++
			if err := evalAll(fr, ops); err != nil {
				return err
			}
			if reads {
				fr.flush()
			}
			v, err := evalBuiltin(fr.rt, name, fr.args(base, n))
			if err != nil {
				return err
			}
			fr.tmp[dst] = v
			return nil
		}
	case Bin:
		return cc.bin(ex, dst)
	case Un:
		inner := cc.expr(ex.E, dst)
		switch ex.Op {
		case "-":
			return func(fr *frame) error {
				fr.charge++
				if err := inner(fr); err != nil {
					return err
				}
				switch v := &fr.tmp[dst]; v.Kind {
				case object.KInt:
					*v = object.Int(-v.I)
				case object.KFloat:
					*v = object.Float(-v.F)
				default:
					return fmt.Errorf("unary - on %v", v.Kind)
				}
				return nil
			}
		case "not":
			return func(fr *frame) error {
				fr.charge++
				if err := inner(fr); err != nil {
					return err
				}
				fr.tmp[dst] = object.Bool(!fr.tmp[dst].Truth())
				return nil
			}
		}
		bad := fmt.Errorf("unknown unary operator %q", ex.Op)
		return func(fr *frame) error {
			fr.charge++
			if err := inner(fr); err != nil {
				return err
			}
			return bad
		}
	case MkTuple:
		base, ops := cc.operands(ex.Fields)
		cc.release(base)
		name, n := ex.TypeName, len(ex.Fields)
		return func(fr *frame) error {
			fr.charge++
			if err := evalAll(fr, ops); err != nil {
				return err
			}
			fields := make([]object.Value, n)
			copy(fields, fr.tmp[base:])
			fr.tmp[dst] = object.TupleVal(name, fields...)
			return nil
		}
	case MkSet:
		base, ops := cc.operands(ex.Elems)
		cc.release(base)
		n := len(ex.Elems)
		return func(fr *frame) error {
			fr.charge++
			if err := evalAll(fr, ops); err != nil {
				return err
			}
			elems := make([]object.Value, n)
			copy(elems, fr.tmp[base:])
			fr.tmp[dst] = object.SetVal(elems...)
			return nil
		}
	case Elems:
		coll := cc.expr(ex.Coll, dst)
		return func(fr *frame) error {
			fr.charge++
			if err := coll(fr); err != nil {
				return err
			}
			fr.flush()
			elems, err := fr.rt.ReadElems(fr.tmp[dst])
			if err != nil {
				return err
			}
			fr.tmp[dst] = object.SetVal(elems...)
			return nil
		}
	}
	err := fmt.Errorf("unknown expression %T", e)
	return func(fr *frame) error {
		fr.charge++
		return err
	}
}

// bin compiles a binary operation. The conjunctions evaluate their right
// operand only when the left one does not decide; every other operator
// evaluates both, the left into dst and the right into the next temporary.
func (cc *compiler) bin(ex Bin, dst int) exprFn {
	l := cc.expr(ex.L, dst)
	if ex.Op == OpAnd || ex.Op == OpOr {
		r := cc.expr(ex.R, dst)
		decides := ex.Op == OpOr // the left value that decides the result
		return func(fr *frame) error {
			fr.charge++
			if err := l(fr); err != nil {
				return err
			}
			if fr.tmp[dst].Truth() == decides {
				fr.tmp[dst] = object.Bool(decides)
				return nil
			}
			if err := r(fr); err != nil {
				return err
			}
			fr.tmp[dst] = object.Bool(fr.tmp[dst].Truth())
			return nil
		}
	}
	t := cc.alloc(1)
	r := cc.expr(ex.R, t)
	cc.release(t)
	both := func(fr *frame) error {
		fr.charge++
		if err := l(fr); err != nil {
			return err
		}
		return r(fr)
	}
	op := ex.Op
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv:
		return func(fr *frame) error {
			if err := both(fr); err != nil {
				return err
			}
			return arith(&fr.tmp[dst], op, &fr.tmp[dst], &fr.tmp[t])
		}
	case OpLt, OpLe, OpGt, OpGe:
		return func(fr *frame) error {
			if err := both(fr); err != nil {
				return err
			}
			return compare(&fr.tmp[dst], op, &fr.tmp[dst], &fr.tmp[t])
		}
	case OpEq, OpNe:
		return func(fr *frame) error {
			if err := both(fr); err != nil {
				return err
			}
			fr.tmp[dst] = object.Bool(fr.tmp[dst].Equal(fr.tmp[t]) == (op == OpEq))
			return nil
		}
	case OpIn:
		return func(fr *frame) error {
			if err := both(fr); err != nil {
				return err
			}
			coll := &fr.tmp[t]
			if coll.Kind == object.KRef {
				fr.flush()
				elems, err := fr.rt.ReadElems(*coll)
				if err != nil {
					return err
				}
				*coll = object.SetVal(elems...)
			}
			if coll.Kind != object.KSet && coll.Kind != object.KList {
				return fmt.Errorf("'in' on non-collection %v", coll.Kind)
			}
			fr.tmp[dst] = object.Bool(coll.Contains(fr.tmp[dst]))
			return nil
		}
	}
	bad := fmt.Errorf("unknown binary operator %v", op)
	return func(fr *frame) error {
		if err := both(fr); err != nil {
			return err
		}
		return bad
	}
}
