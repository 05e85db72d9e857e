// Package query implements GOMql, the QUEL-like query language of GOM, for
// the query classes the paper uses: forward and backward queries over
// (materialized) functions, aggregates, and the materialize statement.
//
//	range c: Cuboid retrieve c where c.volume > 20.0 and c.weight > 100.0
//	range c: Cuboid retrieve sum(c.weight) where c.CuboidID = $id
//	range c: Cuboid materialize c.volume, c.weight where c.Mat.Name = "Iron"
//
// A statement's targets and predicate lower once to GOMpl functions that
// lang.Eval runs (lower.go). The planner recognizes invocations of
// materialized functions in the selection predicate and rewrites them into
// forward or backward GMR retrievals (Section 3.2), checking restricted-GMR
// applicability with the Rosenkrantz–Hunt test of Section 6; everything
// else falls back to an extension scan.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokParam // $name
	tokDot
	tokComma
	tokColon
	tokLParen
	tokRParen
	tokOp // < <= > >= = != etc.
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords are case-insensitive.
func isKeyword(s, kw string) bool { return strings.EqualFold(s, kw) }

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '.':
			l.emit(tokDot, ".")
			l.pos++
		case c == ',':
			l.emit(tokComma, ",")
			l.pos++
		case c == ':':
			l.emit(tokColon, ":")
			l.pos++
		case c == '(':
			l.emit(tokLParen, "(")
			l.pos++
		case c == ')':
			l.emit(tokRParen, ")")
			l.pos++
		case c == '$':
			l.pos++
			start := l.pos
			for l.pos < len(l.src) && isIdentChar(rune(l.src[l.pos])) {
				l.pos++
			}
			if l.pos == start {
				return nil, fmt.Errorf("gomql: empty parameter name at %d", start)
			}
			l.toks = append(l.toks, token{tokParam, l.src[start:l.pos], start})
		case c == '"' || c == '\'':
			s, err := l.lexString(c)
			if err != nil {
				return nil, err
			}
			l.emit(tokString, s)
		case c == '<' || c == '>' || c == '=' || c == '!':
			start := l.pos
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
			}
			op := l.src[start:l.pos]
			if op == "!" {
				return nil, fmt.Errorf("gomql: stray '!' at %d", start)
			}
			l.toks = append(l.toks, token{tokOp, op, start})
		case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.') {
				l.pos++
			}
			l.toks = append(l.toks, token{tokNumber, l.src[start:l.pos], start})
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentChar(rune(l.src[l.pos])) {
				l.pos++
			}
			l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
		default:
			return nil, fmt.Errorf("gomql: unexpected character %q at %d", c, l.pos)
		}
	}
}

func (l *lexer) emit(k tokKind, text string) {
	l.toks = append(l.toks, token{k, text, l.pos})
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func (l *lexer) lexString(quote byte) (string, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			return b.String(), nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			c = l.src[l.pos]
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("gomql: unterminated string literal")
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentChar(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }
