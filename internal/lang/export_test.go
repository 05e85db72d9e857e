package lang

import "gomdb/internal/object"

// EvalOracle evaluates fn by walking its syntax tree (oracle_test.go).
func EvalOracle(rt Runtime, fn *Function, args []object.Value) (object.Value, error) {
	return evalOracle(rt, fn, args)
}

// UseOracle makes every later Eval of fn walk fn's syntax tree instead of
// running its compiled body, so that the calls an oracle evaluation makes
// through the Runtime are evaluated by the oracle as well.
func UseOracle(fn *Function) {
	c := compile(&Function{Params: fn.Params})
	c.body = func(fr *frame) (bool, error) {
		env := make(map[string]object.Value, len(fn.Params)+4)
		for i, p := range fn.Params {
			env[p.Name] = fr.vars[c.params[i]]
		}
		v, returned, err := oracleStmts(fr.rt, fn.Body, env)
		fr.tmp[retSlot] = v
		return returned, err
	}
	fn.code.Store(c)
}
