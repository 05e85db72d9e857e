package query

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Query AST.

// RangeDecl binds a variable to a type extension: "range c: Cuboid".
type RangeDecl struct {
	Var  string
	Type string
}

// Target is one retrieval target: a path expression optionally wrapped in an
// aggregate (sum, avg, count, min, max).
type Target struct {
	Agg  string // "" for plain targets
	Path *PathE
}

// QueryKind distinguishes retrieve from materialize statements.
type QueryKind int

const (
	// Retrieve is a query.
	Retrieve QueryKind = iota
	// MaterializeStmt initiates function materialization.
	MaterializeStmt
)

// Query is a parsed GOMql statement.
type Query struct {
	Kind    QueryKind
	Ranges  []RangeDecl
	Targets []Target
	Where   PredE // nil when absent

	// lowered is the statement lowered to GOMpl by its first run or
	// classification (Executor.lower).
	lowered atomic.Pointer[lowered]
}

// Predicate and operand expressions.

// PredE is a predicate expression node.
type PredE interface{ predNode() }

// AndE is conjunction.
type AndE struct{ L, R PredE }

// OrE is disjunction.
type OrE struct{ L, R PredE }

// NotE is negation.
type NotE struct{ E PredE }

// CmpE is a comparison between two operands.
type CmpE struct {
	Op string // < <= > >= = !=
	L  OperandE
	R  OperandE
}

// InE is a membership test: operand in operand.
type InE struct {
	Elem OperandE
	Coll OperandE
}

// TruthE tests a boolean-valued operand directly ("where c.Good", "where
// true").
type TruthE struct{ Op OperandE }

func (AndE) predNode()   {}
func (OrE) predNode()    {}
func (NotE) predNode()   {}
func (CmpE) predNode()   {}
func (InE) predNode()    {}
func (TruthE) predNode() {}

// OperandE is an operand: a path expression, a literal, or a parameter.
type OperandE interface{ operandNode() }

// PathE is a path expression rooted at a range variable: c.Mat.Name or
// c.volume; each step may be an attribute or a (nullary) function. A call
// step with explicit arguments is expressed by Call.
type PathE struct {
	Root string
	Segs []string
	// Call is set when the path is a function application with explicit
	// arguments: distance(c, $r).
	Call *CallE
}

// CallE is a function application with explicit argument operands.
type CallE struct {
	Fn   string
	Args []OperandE
}

// LitE is a literal value.
type LitE struct {
	Num   float64
	IsNum bool
	Str   string
	Bool  bool
	IsB   bool
}

// ParamE is a named parameter ($name), bound at execution time.
type ParamE struct{ Name string }

func (*PathE) operandNode() {}
func (LitE) operandNode()   {}
func (ParamE) operandNode() {}

// Parse parses a GOMql statement.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, fmt.Errorf("gomql: %w", err)
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("expected %s, got %v", what, t)
	}
	return t, nil
}

func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && isKeyword(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if !p.keyword("range") {
		return nil, fmt.Errorf("query must start with 'range', got %v", p.peek())
	}
	for {
		v, err := p.expect(tokIdent, "range variable")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon, "':'"); err != nil {
			return nil, err
		}
		tn, err := p.expect(tokIdent, "type name")
		if err != nil {
			return nil, err
		}
		q.Ranges = append(q.Ranges, RangeDecl{Var: v.text, Type: tn.text})
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	switch {
	case p.keyword("retrieve"):
		q.Kind = Retrieve
	case p.keyword("materialize"):
		q.Kind = MaterializeStmt
	default:
		return nil, fmt.Errorf("expected 'retrieve' or 'materialize', got %v", p.peek())
	}
	for {
		tgt, err := p.parseTarget()
		if err != nil {
			return nil, err
		}
		q.Targets = append(q.Targets, tgt)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.keyword("where") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = w
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("trailing input at %v", t)
	}
	return q, nil
}

var aggregates = map[string]bool{"sum": true, "avg": true, "count": true, "min": true, "max": true}

func (p *parser) parseTarget() (Target, error) {
	t := p.peek()
	if t.kind == tokIdent && aggregates[strings.ToLower(t.text)] && p.toks[p.pos+1].kind == tokLParen {
		agg := strings.ToLower(p.next().text)
		p.next() // (
		path, err := p.parsePathOperand()
		if err != nil {
			return Target{}, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return Target{}, err
		}
		pe, ok := path.(*PathE)
		if !ok {
			return Target{}, fmt.Errorf("aggregate argument must be a path expression")
		}
		return Target{Agg: agg, Path: pe}, nil
	}
	op, err := p.parsePathOperand()
	if err != nil {
		return Target{}, err
	}
	pe, ok := op.(*PathE)
	if !ok {
		return Target{}, fmt.Errorf("retrieval target must be a path expression")
	}
	return Target{Path: pe}, nil
}

// Predicate grammar: or := and (OR and)*; and := not (AND not)*;
// not := NOT not | '(' or ')' | comparison.
func (p *parser) parseOr() (PredE, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = OrE{l, r}
	}
	return l, nil
}

func (p *parser) parseAnd() (PredE, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = AndE{l, r}
	}
	return l, nil
}

func (p *parser) parseNot() (PredE, error) {
	if p.keyword("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return NotE{e}, nil
	}
	if p.peek().kind == tokLParen {
		// Could be a parenthesized predicate; try it.
		save := p.pos
		p.next()
		e, err := p.parseOr()
		if err == nil && p.peek().kind == tokRParen {
			p.next()
			return e, nil
		}
		p.pos = save
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (PredE, error) {
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.keyword("in") {
		r, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return InE{Elem: l, Coll: r}, nil
	}
	if p.peek().kind != tokOp {
		// A bare boolean-valued operand is a truth test.
		return TruthE{Op: l}, nil
	}
	t := p.next()
	r, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return CmpE{Op: t.text, L: l, R: r}, nil
}

func (p *parser) parseOperand() (OperandE, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", t.text)
		}
		return LitE{Num: f, IsNum: true}, nil
	case tokString:
		p.next()
		return LitE{Str: t.text}, nil
	case tokParam:
		p.next()
		return ParamE{Name: t.text}, nil
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "true":
			p.next()
			return LitE{Bool: true, IsB: true}, nil
		case "false":
			p.next()
			return LitE{Bool: false, IsB: true}, nil
		}
		return p.parsePathOperand()
	}
	return nil, fmt.Errorf("expected operand, got %v", t)
}

// parsePathOperand parses IDENT('.'IDENT)* or IDENT '(' operands ')'.
func (p *parser) parsePathOperand() (OperandE, error) {
	id, err := p.expect(tokIdent, "identifier")
	if err != nil {
		return nil, err
	}
	// Free-function application: distance(c, $r).
	if p.peek().kind == tokLParen {
		p.next()
		call := &CallE{Fn: id.text}
		if p.peek().kind != tokRParen {
			for {
				arg, err := p.parseOperand()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.peek().kind == tokComma {
					p.next()
					continue
				}
				break
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return &PathE{Call: call}, nil
	}
	path := &PathE{Root: id.text}
	for p.peek().kind == tokDot {
		p.next()
		seg, err := p.expect(tokIdent, "path segment")
		if err != nil {
			return nil, err
		}
		path.Segs = append(path.Segs, seg.text)
	}
	return path, nil
}

// String renders a path for diagnostics.
func (pe *PathE) String() string {
	if pe.Call != nil {
		return pe.Call.Fn + "(...)"
	}
	if len(pe.Segs) == 0 {
		return pe.Root
	}
	return pe.Root + "." + strings.Join(pe.Segs, ".")
}
