package lang

// The tree-walking evaluator: the definition of GOMpl evaluation that the
// compiled evaluator (compile.go) must reproduce, result for result, error
// for error and charge for charge. It walks the syntax tree with a map
// environment and charges the Runtime 1 per statement and expression node
// as it reaches it. FuzzEvalMatchesOracle and TestEvalMatchesOracle compare
// the two.

import (
	"fmt"

	"gomdb/internal/object"
)

// evalOracle executes fn with the given arguments by walking its syntax
// tree, charging 1 per statement and expression node as it goes.
func evalOracle(rt Runtime, fn *Function, args []object.Value) (object.Value, error) {
	if len(args) != len(fn.Params) {
		return object.Null(), fmt.Errorf("lang: %s expects %d arguments, got %d", fn.Name, len(fn.Params), len(args))
	}
	env := make(map[string]object.Value, len(args)+4)
	for i, p := range fn.Params {
		env[p.Name] = args[i]
	}
	val, returned, err := oracleStmts(rt, fn.Body, env)
	if err != nil {
		return object.Null(), fmt.Errorf("lang: in %s: %w", fn.Name, err)
	}
	if !returned {
		return object.Null(), nil
	}
	return val, nil
}

func oracleStmts(rt Runtime, stmts []Stmt, env map[string]object.Value) (object.Value, bool, error) {
	for _, s := range stmts {
		rt.Charge(1)
		switch st := s.(type) {
		case Assign:
			v, err := oracleExpr(rt, st.E, env)
			if err != nil {
				return object.Null(), false, err
			}
			env[st.Var] = v
		case SetAttr:
			recv, err := oracleExpr(rt, st.Recv, env)
			if err != nil {
				return object.Null(), false, err
			}
			v, err := oracleExpr(rt, st.E, env)
			if err != nil {
				return object.Null(), false, err
			}
			if err := rt.SetAttr(recv, st.Name, v); err != nil {
				return object.Null(), false, err
			}
		case Insert:
			recv, err := oracleExpr(rt, st.Recv, env)
			if err != nil {
				return object.Null(), false, err
			}
			v, err := oracleExpr(rt, st.E, env)
			if err != nil {
				return object.Null(), false, err
			}
			if err := rt.InsertElem(recv, v); err != nil {
				return object.Null(), false, err
			}
		case Remove:
			recv, err := oracleExpr(rt, st.Recv, env)
			if err != nil {
				return object.Null(), false, err
			}
			v, err := oracleExpr(rt, st.E, env)
			if err != nil {
				return object.Null(), false, err
			}
			if err := rt.RemoveElem(recv, v); err != nil {
				return object.Null(), false, err
			}
		case If:
			cond, err := oracleExpr(rt, st.Cond, env)
			if err != nil {
				return object.Null(), false, err
			}
			branch := st.Else
			if cond.Truth() {
				branch = st.Then
			}
			if v, ret, err := oracleStmts(rt, branch, env); err != nil || ret {
				return v, ret, err
			}
		case ForEach:
			coll, err := oracleExpr(rt, st.Coll, env)
			if err != nil {
				return object.Null(), false, err
			}
			elems, err := rt.ReadElems(coll)
			if err != nil {
				return object.Null(), false, err
			}
			saved, had := env[st.Var]
			for _, e := range elems {
				env[st.Var] = e
				if v, ret, err := oracleStmts(rt, st.Body, env); err != nil || ret {
					return v, ret, err
				}
			}
			if had {
				env[st.Var] = saved
			} else {
				delete(env, st.Var)
			}
		case Return:
			if st.E == nil {
				return object.Null(), true, nil
			}
			v, err := oracleExpr(rt, st.E, env)
			return v, true, err
		case ExprStmt:
			if _, err := oracleExpr(rt, st.E, env); err != nil {
				return object.Null(), false, err
			}
		default:
			return object.Null(), false, fmt.Errorf("unknown statement %T", s)
		}
	}
	return object.Null(), false, nil
}

func oracleExpr(rt Runtime, e Expr, env map[string]object.Value) (object.Value, error) {
	rt.Charge(1)
	switch ex := e.(type) {
	case Lit:
		return ex.Val, nil
	case Var:
		v, ok := env[ex.Name]
		if !ok {
			return object.Null(), fmt.Errorf("unbound variable %q", ex.Name)
		}
		return v, nil
	case Attr:
		recv, err := oracleExpr(rt, ex.Recv, env)
		if err != nil {
			return object.Null(), err
		}
		return rt.ReadAttr(recv, ex.Name)
	case Call:
		args := make([]object.Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := oracleExpr(rt, a, env)
			if err != nil {
				return object.Null(), err
			}
			args[i] = v
		}
		return rt.CallFunction(ex.Fn, args)
	case Builtin:
		args := make([]object.Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := oracleExpr(rt, a, env)
			if err != nil {
				return object.Null(), err
			}
			args[i] = v
		}
		return evalBuiltin(rt, ex.Name, args)
	case Bin:
		return oracleBin(rt, ex, env)
	case Un:
		v, err := oracleExpr(rt, ex.E, env)
		if err != nil {
			return object.Null(), err
		}
		switch ex.Op {
		case "-":
			switch v.Kind {
			case object.KInt:
				return object.Int(-v.I), nil
			case object.KFloat:
				return object.Float(-v.F), nil
			}
			return object.Null(), fmt.Errorf("unary - on %v", v.Kind)
		case "not":
			return object.Bool(!v.Truth()), nil
		}
		return object.Null(), fmt.Errorf("unknown unary operator %q", ex.Op)
	case MkTuple:
		fields := make([]object.Value, len(ex.Fields))
		for i, f := range ex.Fields {
			v, err := oracleExpr(rt, f, env)
			if err != nil {
				return object.Null(), err
			}
			fields[i] = v
		}
		return object.TupleVal(ex.TypeName, fields...), nil
	case MkSet:
		elems := make([]object.Value, 0, len(ex.Elems))
		for _, el := range ex.Elems {
			v, err := oracleExpr(rt, el, env)
			if err != nil {
				return object.Null(), err
			}
			elems = append(elems, v)
		}
		return object.SetVal(elems...), nil
	case Elems:
		coll, err := oracleExpr(rt, ex.Coll, env)
		if err != nil {
			return object.Null(), err
		}
		elems, err := rt.ReadElems(coll)
		if err != nil {
			return object.Null(), err
		}
		return object.SetVal(elems...), nil
	}
	return object.Null(), fmt.Errorf("unknown expression %T", e)
}

func oracleBin(rt Runtime, ex Bin, env map[string]object.Value) (object.Value, error) {
	// Short-circuit boolean operators.
	if ex.Op == OpAnd || ex.Op == OpOr {
		l, err := oracleExpr(rt, ex.L, env)
		if err != nil {
			return object.Null(), err
		}
		if ex.Op == OpAnd && !l.Truth() {
			return object.Bool(false), nil
		}
		if ex.Op == OpOr && l.Truth() {
			return object.Bool(true), nil
		}
		r, err := oracleExpr(rt, ex.R, env)
		if err != nil {
			return object.Null(), err
		}
		return object.Bool(r.Truth()), nil
	}
	l, err := oracleExpr(rt, ex.L, env)
	if err != nil {
		return object.Null(), err
	}
	r, err := oracleExpr(rt, ex.R, env)
	if err != nil {
		return object.Null(), err
	}
	switch ex.Op {
	case OpAdd, OpSub, OpMul, OpDiv:
		var v object.Value
		err := arith(&v, ex.Op, &l, &r)
		return v, err
	case OpEq:
		return object.Bool(l.Equal(r)), nil
	case OpNe:
		return object.Bool(!l.Equal(r)), nil
	case OpLt, OpLe, OpGt, OpGe:
		var v object.Value
		err := compare(&v, ex.Op, &l, &r)
		return v, err
	case OpIn:
		if r.Kind == object.KRef {
			elems, err := rt.ReadElems(r)
			if err != nil {
				return object.Null(), err
			}
			r = object.SetVal(elems...)
		}
		if r.Kind != object.KSet && r.Kind != object.KList {
			return object.Null(), fmt.Errorf("'in' on non-collection %v", r.Kind)
		}
		return object.Bool(r.Contains(l)), nil
	}
	return object.Null(), fmt.Errorf("unknown binary operator %v", ex.Op)
}
