package query

import "gomdb/internal/object"

// BackwardCandidates runs ex's backward plan for the single-variable
// statement q: the range variable's candidates in match order, and false
// when no backward plan applies.
func BackwardCandidates(ex *Executor, q *Query, params map[string]object.Value) ([]object.Value, bool, error) {
	if len(q.Ranges) != 1 || q.Where == nil {
		return nil, false, nil
	}
	bw, ok, err := ex.backwardPlan(q, params)
	if !ok || err != nil {
		return nil, ok, err
	}
	var out []object.Value
	for _, m := range bw.matches {
		if c, ok := bw.candidate(m); ok {
			out = append(out, c)
		}
	}
	return out, true, nil
}

// Finish applies q's aggregates to the rows of res.
func Finish(ex *Executor, q *Query, res *Result) (*Result, error) { return ex.finish(q, res) }

// Admits reports why the retrieve statement q fails the static rules with
// params bound, nil when it passes them: it lowers, and params binds every
// parameter it names.
func Admits(ex *Executor, q *Query, params map[string]object.Value) error {
	l, err := ex.lower(q)
	if err == nil {
		_, err = l.bind(len(q.Ranges), params)
	}
	return err
}
