package lang

// A parser for textual GOMpl, the concrete syntax the paper uses in its
// type definition frames:
//
//	define volume is
//	    return self.length * self.width * self.height
//	end
//
//	define translate(t: Vertex) is
//	    self.V1.translate(t);
//	    ...
//	end
//
//	define total_volume: float is
//	    s := 0.0
//	    foreach c in self do s := s + c.volume end
//	    return s
//	end
//
// Grammar (statements separated by ';' or newline):
//
//	function := 'define' name ['(' params ')'] [':' type] 'is' block 'end'
//	params   := name ':' type (',' name ':' type)*
//	block    := { stmt }
//	stmt     := 'return' [expr]
//	          | name ':=' expr
//	          | 'if' expr 'then' block ['else' block] 'end'
//	          | 'foreach' name 'in' expr 'do' block 'end'
//	          | expr                       (call / elementary update)
//	expr     := or; or := and ('or' and)*; and := cmp ('and' cmp)*
//	cmp      := ['not'] add [(= != < <= > >= in) add]
//	add      := mul (('+'|'-') mul)*; mul := unary (('*'|'/') unary)*
//	unary    := '-' unary | postfix
//	postfix  := primary { '.' name [ '(' args ')' ] }
//	primary  := number | string | true | false | name ['(' args ')']
//	          | '(' expr ')' | '{' [args] '}'
//
// Method calls (recv.op(args)), attribute reads (recv.attr), and the
// elementary updates recv.set_A(e) / recv.insert(e) / recv.remove(e) are
// distinguished by the binder (bind.go), which type-checks the body against
// a schema and qualifies operation names — the static knowledge the paper's
// schema compiler had.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type srcTok struct {
	kind srcTokKind
	text string
	line int
}

type srcTokKind int

const (
	sEOF srcTokKind = iota
	sIdent
	sNumber
	sString
	sPunct // ( ) { } , . ; :=
	sOp    // + - * / = != < <= > >=
	sNewline
)

func lexSrc(src string) ([]srcTok, error) {
	var toks []srcTok
	line := 1
	i := 0
	emit := func(k srcTokKind, text string) { toks = append(toks, srcTok{k, text, line}) }
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			emit(sNewline, "\n")
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '!' && i+1 < len(src) && src[i+1] == '!':
			// "!!" comment to end of line (the paper's comment syntax).
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ':' && i+1 < len(src) && src[i+1] == '=':
			emit(sPunct, ":=")
			i += 2
		case strings.IndexByte("(){},.;:", c) >= 0:
			emit(sPunct, string(c))
			i++
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			emit(sOp, "!=")
			i += 2
		case c == '<' || c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				emit(sOp, string(c)+"=")
				i += 2
			} else {
				emit(sOp, string(c))
				i++
			}
		case c == '=' || c == '+' || c == '-' || c == '*' || c == '/':
			emit(sOp, string(c))
			i++
		case c == '"' || c == '\'':
			quote := c
			i++
			var b strings.Builder
			for i < len(src) && src[i] != quote {
				if src[i] == '\n' {
					return nil, fmt.Errorf("line %d: unterminated string", line)
				}
				if src[i] == '\\' && i+1 < len(src) {
					i++
				}
				b.WriteByte(src[i])
				i++
			}
			if i >= len(src) {
				return nil, fmt.Errorf("line %d: unterminated string", line)
			}
			i++
			emit(sString, b.String())
		case unicode.IsDigit(rune(c)):
			start := i
			for i < len(src) && (unicode.IsDigit(rune(src[i])) || src[i] == '.') {
				// A '.' followed by a non-digit is a path separator, not a
				// decimal point.
				if src[i] == '.' && (i+1 >= len(src) || !unicode.IsDigit(rune(src[i+1]))) {
					break
				}
				i++
			}
			emit(sNumber, src[start:i])
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			emit(sIdent, src[start:i])
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", line, c)
		}
	}
	emit(sEOF, "")
	return toks, nil
}

type srcParser struct {
	toks []srcTok
	pos  int
}

func (p *srcParser) peek() srcTok { return p.toks[p.pos] }

func (p *srcParser) next() srcTok {
	t := p.toks[p.pos]
	if t.kind != sEOF {
		p.pos++
	}
	return t
}

func (p *srcParser) skipNewlines() {
	for p.peek().kind == sNewline {
		p.pos++
	}
}

func (p *srcParser) errf(t srcTok, format string, args ...any) error {
	return fmt.Errorf("line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *srcParser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == sIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *srcParser) expectPunct(s string) error {
	t := p.next()
	if t.kind != sPunct || t.text != s {
		return p.errf(t, "expected %q, got %q", s, t.text)
	}
	return nil
}

// ParsedFunction is the unbound result of parsing a define block: the
// receiver parameter is added by the binder (for type-associated
// operations) or declared explicitly (for free functions).
type ParsedFunction struct {
	Name string
	// RecvType is set when the define used the qualified form
	// "define Type.op ...".
	RecvType   string
	Params     []Param
	ResultType string
	Body       []Stmt
}

// ParseDefine parses one "define ... end" block.
func ParseDefine(src string) (*ParsedFunction, error) {
	toks, err := lexSrc(src)
	if err != nil {
		return nil, fmt.Errorf("gompl: %w", err)
	}
	p := &srcParser{toks: toks}
	p.skipNewlines()
	if !p.keyword("define") {
		return nil, p.errf(p.peek(), "expected 'define', got %q", p.peek().text)
	}
	nameTok := p.next()
	if nameTok.kind != sIdent {
		return nil, p.errf(nameTok, "expected function name")
	}
	fn := &ParsedFunction{Name: nameTok.text}
	if p.peek().kind == sPunct && p.peek().text == "." {
		p.next()
		opTok := p.next()
		if opTok.kind != sIdent {
			return nil, p.errf(opTok, "expected operation name after %q.", nameTok.text)
		}
		fn.RecvType = nameTok.text
		fn.Name = opTok.text
	}
	if p.peek().kind == sPunct && p.peek().text == "(" {
		p.next()
		for {
			if p.peek().kind == sPunct && p.peek().text == ")" {
				p.next()
				break
			}
			pn := p.next()
			if pn.kind != sIdent {
				return nil, p.errf(pn, "expected parameter name")
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			pt := p.next()
			if pt.kind != sIdent {
				return nil, p.errf(pt, "expected parameter type")
			}
			fn.Params = append(fn.Params, Param{Name: pn.text, Type: pt.text})
			if p.peek().kind == sPunct && p.peek().text == "," {
				p.next()
			}
		}
	}
	if p.peek().kind == sPunct && p.peek().text == ":" {
		p.next()
		rt := p.next()
		if rt.kind != sIdent {
			return nil, p.errf(rt, "expected result type")
		}
		fn.ResultType = rt.text
	}
	if !p.keyword("is") {
		return nil, p.errf(p.peek(), "expected 'is', got %q", p.peek().text)
	}
	body, err := p.parseBlock("end")
	if err != nil {
		return nil, fmt.Errorf("gompl: %w", err)
	}
	fn.Body = body
	if !p.keyword("end") {
		return nil, p.errf(p.peek(), "expected 'end', got %q", p.peek().text)
	}
	p.skipNewlines()
	if p.peek().kind != sEOF {
		return nil, p.errf(p.peek(), "trailing input after 'end'")
	}
	return fn, nil
}

// parseBlock parses statements until one of the terminator keywords.
func (p *srcParser) parseBlock(terminators ...string) ([]Stmt, error) {
	var stmts []Stmt
	for {
		p.skipNewlines()
		t := p.peek()
		if t.kind == sEOF {
			return nil, p.errf(t, "unexpected end of input (missing 'end'?)")
		}
		if t.kind == sIdent {
			for _, term := range terminators {
				if strings.EqualFold(t.text, term) {
					return stmts, nil
				}
			}
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		// Optional ';' between statements.
		if p.peek().kind == sPunct && p.peek().text == ";" {
			p.next()
		}
	}
}

func (p *srcParser) parseStmt() (Stmt, error) {
	switch {
	case p.keyword("return"):
		t := p.peek()
		if t.kind == sNewline || t.kind == sEOF ||
			(t.kind == sPunct && t.text == ";") ||
			(t.kind == sIdent && strings.EqualFold(t.text, "end")) {
			return Return{}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return Return{E: e}, nil
	case p.keyword("if"):
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.keyword("then") {
			return nil, p.errf(p.peek(), "expected 'then'")
		}
		thenB, err := p.parseBlock("else", "end")
		if err != nil {
			return nil, err
		}
		var elseB []Stmt
		if p.keyword("else") {
			elseB, err = p.parseBlock("end")
			if err != nil {
				return nil, err
			}
		}
		if !p.keyword("end") {
			return nil, p.errf(p.peek(), "expected 'end' after if")
		}
		return If{Cond: cond, Then: thenB, Else: elseB}, nil
	case p.keyword("foreach"):
		v := p.next()
		if v.kind != sIdent {
			return nil, p.errf(v, "expected loop variable")
		}
		if !p.keyword("in") {
			return nil, p.errf(p.peek(), "expected 'in'")
		}
		coll, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.keyword("do") {
			return nil, p.errf(p.peek(), "expected 'do'")
		}
		body, err := p.parseBlock("end")
		if err != nil {
			return nil, err
		}
		if !p.keyword("end") {
			return nil, p.errf(p.peek(), "expected 'end' after foreach")
		}
		return ForEach{Var: v.text, Coll: coll, Body: body}, nil
	}
	// Assignment or expression statement.
	if p.peek().kind == sIdent && p.toks[p.pos+1].kind == sPunct && p.toks[p.pos+1].text == ":=" {
		v := p.next()
		p.next() // :=
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return Assign{Var: v.text, E: e}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return ExprStmt{E: e}, nil
}

// Expression precedence climbing.

func (p *srcParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *srcParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *srcParser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *srcParser) parseCmp() (Expr, error) {
	if p.keyword("not") {
		e, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		return Un{Op: "not", E: e}, nil
	}
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == sOp {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return Bin{Op: op, L: l, R: r}, nil
		}
	}
	if p.keyword("in") {
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return Bin{Op: OpIn, L: l, R: r}, nil
	}
	return l, nil
}

func (p *srcParser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != sOp || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		if t.text == "+" {
			l = Bin{Op: OpAdd, L: l, R: r}
		} else {
			l = Bin{Op: OpSub, L: l, R: r}
		}
	}
}

func (p *srcParser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != sOp || (t.text != "*" && t.text != "/") {
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.text == "*" {
			l = Bin{Op: OpMul, L: l, R: r}
		} else {
			l = Bin{Op: OpDiv, L: l, R: r}
		}
	}
}

func (p *srcParser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.kind == sOp && t.text == "-" {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Un{Op: "-", E: e}, nil
	}
	return p.parsePostfix()
}

// rawCall is an unresolved method application recv.name(args); the binder
// rewrites it into Call/SetAttr/Insert/Remove based on static types.
type rawCall struct {
	Recv Expr
	Name string
	Args []Expr
}

func (rawCall) exprNode() {}
func (r rawCall) String() string {
	return r.Recv.String() + "." + r.Name + "(" + joinExprs(r.Args) + ")"
}

func (p *srcParser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == sPunct && p.peek().text == "." {
		p.next()
		seg := p.next()
		if seg.kind != sIdent {
			return nil, p.errf(seg, "expected attribute or operation name after '.'")
		}
		if p.peek().kind == sPunct && p.peek().text == "(" {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			e = rawCall{Recv: e, Name: seg.text, Args: args}
			continue
		}
		e = Attr{Recv: e, Name: seg.text}
	}
	return e, nil
}

func (p *srcParser) parseArgs() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expr
	p.skipNewlines()
	if p.peek().kind == sPunct && p.peek().text == ")" {
		p.next()
		return args, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		p.skipNewlines()
		t := p.next()
		if t.kind == sPunct && t.text == ")" {
			return args, nil
		}
		if t.kind != sPunct || t.text != "," {
			return nil, p.errf(t, "expected ',' or ')', got %q", t.text)
		}
	}
}

func (p *srcParser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case sNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf(t, "bad number %q", t.text)
			}
			return F(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf(t, "bad number %q", t.text)
		}
		return I(n), nil
	case sString:
		return S(t.text), nil
	case sIdent:
		switch strings.ToLower(t.text) {
		case "true":
			return B(true), nil
		case "false":
			return B(false), nil
		}
		if p.peek().kind == sPunct && p.peek().text == "(" {
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			// Free function or builtin; the binder decides.
			return Call{Fn: t.text, Args: args}, nil
		}
		return V(t.text), nil
	case sPunct:
		switch t.text {
		case "(":
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "{":
			var elems []Expr
			p.skipNewlines()
			if p.peek().kind == sPunct && p.peek().text == "}" {
				p.next()
				return MkSet{}, nil
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				nt := p.next()
				if nt.kind == sPunct && nt.text == "}" {
					return MkSet{Elems: elems}, nil
				}
				if nt.kind != sPunct || nt.text != "," {
					return nil, p.errf(nt, "expected ',' or '}'")
				}
			}
		}
	}
	return nil, p.errf(t, "unexpected token %q", t.text)
}
