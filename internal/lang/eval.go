package lang

import (
	"fmt"
	"math"

	"gomdb/internal/object"
)

// Runtime is the interface through which GOMpl bodies touch the object base.
// The schema engine implements it; the GMR manager wraps it with access
// tracking during (re)materialization and with update hooks on the mutating
// operations (the schema rewrite of Section 4.3).
type Runtime interface {
	// ReadAttr performs the built-in read operation A on a tuple object.
	ReadAttr(recv object.Value, attr string) (object.Value, error)
	// ReadElems returns the elements of a set/list object or transient
	// collection value.
	ReadElems(coll object.Value) ([]object.Value, error)
	// CallFunction invokes a declared function. fn may be qualified
	// ("Type.op") or a free-function name; for operations args[0] is the
	// receiver and dispatch follows its dynamic type. args is borrowed from
	// the caller's frame for the call: the callee neither keeps nor grows it.
	CallFunction(fn string, args []object.Value) (object.Value, error)
	// SetAttr performs the elementary update t.set_A.
	SetAttr(recv object.Value, attr string, v object.Value) error
	// InsertElem performs the elementary update t.insert.
	InsertElem(coll, elem object.Value) error
	// RemoveElem performs the elementary update t.remove.
	RemoveElem(coll, elem object.Value) error
	// Charge adds CPU work to the simulated clock.
	Charge(n int64)
}

// arith stores l op r into *dst for an arithmetic operator; dst may be l
// or r. Two ints stay an int, any other numeric pair becomes a float.
func arith(dst *object.Value, op BinOp, l, r *object.Value) error {
	if l.Kind == object.KInt && r.Kind == object.KInt {
		a, b := l.I, r.I
		switch op {
		case OpAdd:
			*dst = object.Int(a + b)
			return nil
		case OpSub:
			*dst = object.Int(a - b)
			return nil
		case OpMul:
			*dst = object.Int(a * b)
			return nil
		case OpDiv:
			if b == 0 {
				return fmt.Errorf("integer division by zero")
			}
			*dst = object.Int(a / b)
			return nil
		}
	}
	lf, okL := l.AsFloat()
	rf, okR := r.AsFloat()
	if !okL || !okR {
		return fmt.Errorf("arithmetic on %v and %v", l.Kind, r.Kind)
	}
	switch op {
	case OpAdd:
		*dst = object.Float(lf + rf)
	case OpSub:
		*dst = object.Float(lf - rf)
	case OpMul:
		*dst = object.Float(lf * rf)
	case OpDiv:
		if rf == 0 {
			return fmt.Errorf("division by zero")
		}
		*dst = object.Float(lf / rf)
	default:
		return fmt.Errorf("bad arithmetic operator %v", op)
	}
	return nil
}

// compare stores the truth of l op r into *dst for an ordering operator;
// dst may be l or r. Two strings compare as strings, any other pair must be
// numeric.
func compare(dst *object.Value, op BinOp, l, r *object.Value) error {
	if l.Kind == object.KString && r.Kind == object.KString {
		a, b := l.S, r.S
		switch op {
		case OpLt:
			*dst = object.Bool(a < b)
			return nil
		case OpLe:
			*dst = object.Bool(a <= b)
			return nil
		case OpGt:
			*dst = object.Bool(a > b)
			return nil
		case OpGe:
			*dst = object.Bool(a >= b)
			return nil
		}
	}
	lf, okL := l.AsFloat()
	rf, okR := r.AsFloat()
	if !okL || !okR {
		return fmt.Errorf("comparison of %v and %v", l.Kind, r.Kind)
	}
	switch op {
	case OpLt:
		*dst = object.Bool(lf < rf)
	case OpLe:
		*dst = object.Bool(lf <= rf)
	case OpGt:
		*dst = object.Bool(lf > rf)
	case OpGe:
		*dst = object.Bool(lf >= rf)
	default:
		return fmt.Errorf("bad comparison operator %v", op)
	}
	return nil
}

func evalBuiltin(rt Runtime, name string, args []object.Value) (object.Value, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("builtin %s expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "sqrt":
		if err := arity(1); err != nil {
			return object.Null(), err
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return object.Null(), fmt.Errorf("sqrt of %v", args[0].Kind)
		}
		if f < 0 {
			return object.Null(), fmt.Errorf("sqrt of negative %g", f)
		}
		return object.Float(math.Sqrt(f)), nil
	case "abs":
		if err := arity(1); err != nil {
			return object.Null(), err
		}
		switch args[0].Kind {
		case object.KInt:
			if args[0].I < 0 {
				return object.Int(-args[0].I), nil
			}
			return args[0], nil
		case object.KFloat:
			return object.Float(math.Abs(args[0].F)), nil
		}
		return object.Null(), fmt.Errorf("abs of %v", args[0].Kind)
	case "min", "max":
		if err := arity(2); err != nil {
			return object.Null(), err
		}
		a, okA := args[0].AsFloat()
		b, okB := args[1].AsFloat()
		if !okA || !okB {
			return object.Null(), fmt.Errorf("%s of %v and %v", name, args[0].Kind, args[1].Kind)
		}
		pickFirst := (a <= b) == (name == "min")
		if pickFirst {
			return args[0], nil
		}
		return args[1], nil
	case "sin", "cos":
		if err := arity(1); err != nil {
			return object.Null(), err
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return object.Null(), fmt.Errorf("%s of %v", name, args[0].Kind)
		}
		if name == "sin" {
			return object.Float(math.Sin(f)), nil
		}
		return object.Float(math.Cos(f)), nil
	case "union":
		// union(set, elem) returns the set extended by elem (pure; the
		// accumulator idiom for building transient collections in loops).
		if err := arity(2); err != nil {
			return object.Null(), err
		}
		s := args[0]
		if s.Kind == object.KNull {
			s = object.SetVal()
		}
		if s.Kind != object.KSet && s.Kind != object.KList {
			return object.Null(), fmt.Errorf("union on %v", s.Kind)
		}
		if s.Kind == object.KSet && s.Contains(args[1]) {
			return s, nil
		}
		elems := make([]object.Value, 0, len(s.Elems)+1)
		elems = append(elems, s.Elems...)
		elems = append(elems, args[1])
		return object.Value{Kind: s.Kind, Elems: elems}, nil
	case "count", "len":
		if err := arity(1); err != nil {
			return object.Null(), err
		}
		v := args[0]
		if v.Kind == object.KRef {
			elems, err := rt.ReadElems(v)
			if err != nil {
				return object.Null(), err
			}
			return object.Int(int64(len(elems))), nil
		}
		if v.Kind == object.KSet || v.Kind == object.KList {
			return object.Int(int64(len(v.Elems))), nil
		}
		if v.Kind == object.KString {
			return object.Int(int64(len(v.S))), nil
		}
		return object.Null(), fmt.Errorf("count of %v", v.Kind)
	}
	return object.Null(), fmt.Errorf("unknown builtin %q", name)
}
