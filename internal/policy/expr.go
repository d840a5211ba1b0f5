package policy

import (
	"fmt"
	"strconv"
	"strings"
)

// Condition expression language, a subset of RFC 2704's:
//
//	expr   := or
//	or     := and ( '||' and )*
//	and    := not ( '&&' not )*
//	not    := '!' not | cmp
//	cmp    := term ( ('=='|'!='|'<'|'<='|'>'|'>='|'~=') term )?
//	term   := IDENT | STRING | NUMBER | 'true' | 'false' | '(' expr ')'
//
// IDENT resolves to the action attribute of that name ("" when absent).
// Comparison is numeric when both sides parse as numbers, else string.
// '~=' is substring containment (standing in for RFC 2704's regex
// match, which the paper's scenarios do not need).

// Expr is a parsed condition expression.
type Expr interface {
	Eval(attrs Attributes) (value, error)
	String() string
}

// value is an expression result: a string, possibly numeric.
type value struct {
	str   string
	num   float64
	isNum bool
}

func strValue(s string) value {
	if s != "" && mayStartNumber(s[0]) {
		if n, err := strconv.ParseFloat(s, 64); err == nil {
			return value{str: s, num: n, isNum: true}
		}
	}
	return value{str: s}
}

// mayStartNumber reports whether c can begin a string strconv.ParseFloat
// accepts: a sign, a digit, a point, or the first letter of "inf",
// "infinity" or "nan" in any case. Other strings skip ParseFloat and
// the error it would build.
func mayStartNumber(c byte) bool {
	switch c {
	case '+', '-', '.', 'i', 'I', 'n', 'N':
		return true
	}
	return c >= '0' && c <= '9'
}

func boolValue(b bool) value {
	if b {
		return value{str: "true", num: 1, isNum: true}
	}
	return value{str: "false", num: 0, isNum: true}
}

type attrRef struct{ name string }

func (a attrRef) Eval(attrs Attributes) (value, error) { return strValue(attrs[a.name]), nil }
func (a attrRef) String() string                       { return a.name }

type literal struct{ v value }

func (l literal) Eval(Attributes) (value, error) { return l.v, nil }
func (l literal) String() string {
	if l.v.isNum {
		return l.v.str
	}
	return fmt.Sprintf("%q", l.v.str)
}

type binop struct {
	op   string
	l, r Expr
}

func (b binop) String() string { return fmt.Sprintf("(%s %s %s)", b.l, b.op, b.r) }

func (b binop) Eval(attrs Attributes) (value, error) {
	lv, err := b.l.Eval(attrs)
	if err != nil {
		return value{}, err
	}
	switch b.op {
	case "&&":
		if !truthy(lv) {
			return boolValue(false), nil
		}
		rv, err := b.r.Eval(attrs)
		if err != nil {
			return value{}, err
		}
		return boolValue(truthy(rv)), nil
	case "||":
		if truthy(lv) {
			return boolValue(true), nil
		}
		rv, err := b.r.Eval(attrs)
		if err != nil {
			return value{}, err
		}
		return boolValue(truthy(rv)), nil
	}
	rv, err := b.r.Eval(attrs)
	if err != nil {
		return value{}, err
	}
	if b.op == "~=" {
		return boolValue(strings.Contains(lv.str, rv.str)), nil
	}
	var cmp int
	if lv.isNum && rv.isNum {
		switch {
		case lv.num < rv.num:
			cmp = -1
		case lv.num > rv.num:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(lv.str, rv.str)
	}
	switch b.op {
	case "==":
		return boolValue(cmp == 0), nil
	case "!=":
		return boolValue(cmp != 0), nil
	case "<":
		return boolValue(cmp < 0), nil
	case "<=":
		return boolValue(cmp <= 0), nil
	case ">":
		return boolValue(cmp > 0), nil
	case ">=":
		return boolValue(cmp >= 0), nil
	}
	return value{}, fmt.Errorf("policy: unknown operator %q", b.op)
}

type notop struct{ e Expr }

func (n notop) String() string { return "!" + n.e.String() }

func (n notop) Eval(attrs Attributes) (value, error) {
	v, err := n.e.Eval(attrs)
	if err != nil {
		return value{}, err
	}
	return boolValue(!truthy(v)), nil
}

// ParseExpr parses one condition expression.
func ParseExpr(src string) (Expr, error) {
	p := &exprParser{toks: lexExpr(src), src: src}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("policy: trailing tokens after expression in %q", src)
	}
	return e, nil
}

type exprParser struct {
	toks []string
	pos  int
	src  string
}

func (p *exprParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *exprParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *exprParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "||" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binop{op: "||", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek() == "&&" {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = binop{op: "&&", l: l, r: r}
	}
	return l, nil
}

func (p *exprParser) parseNot() (Expr, error) {
	if p.peek() == "!" {
		p.next()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return notop{e: e}, nil
	}
	return p.parseCmp()
}

func (p *exprParser) parseCmp() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	switch op := p.peek(); op {
	case "==", "!=", "<", "<=", ">", ">=", "~=":
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return binop{op: op, l: l, r: r}, nil
	}
	return l, nil
}

func (p *exprParser) parseTerm() (Expr, error) {
	t := p.next()
	switch {
	case t == "":
		return nil, fmt.Errorf("policy: unexpected end of expression in %q", p.src)
	case t == "(":
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("policy: missing ')' in %q", p.src)
		}
		return e, nil
	case t[0] == '"':
		// The lexer emits unterminated strings as-is (no closing
		// quote); reject them here rather than slicing out of range.
		if len(t) < 2 || t[len(t)-1] != '"' {
			return nil, fmt.Errorf("policy: unterminated string in %q", p.src)
		}
		return literal{v: value{str: t[1 : len(t)-1]}}, nil
	case t == "true" || t == "false":
		return literal{v: boolValue(t == "true")}, nil
	case t[0] == '-' || (t[0] >= '0' && t[0] <= '9'):
		n, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return nil, fmt.Errorf("policy: bad number %q", t)
		}
		return literal{v: value{str: t, num: n, isNum: true}}, nil
	case isIdentStart(rune(t[0])):
		return attrRef{name: t}, nil
	}
	return nil, fmt.Errorf("policy: unexpected token %q in %q", t, p.src)
}

func isIdentStart(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isIdentRune(r rune) bool {
	return isIdentStart(r) || (r >= '0' && r <= '9')
}

// lexExpr tokenizes a condition expression. Invalid characters become
// one-character tokens the parser will reject.
func lexExpr(src string) []string {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j < len(src) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		case strings.HasPrefix(src[i:], "&&"), strings.HasPrefix(src[i:], "||"),
			strings.HasPrefix(src[i:], "=="), strings.HasPrefix(src[i:], "!="),
			strings.HasPrefix(src[i:], "<="), strings.HasPrefix(src[i:], ">="),
			strings.HasPrefix(src[i:], "~="):
			toks = append(toks, src[i:i+2])
			i += 2
		case c == '(' || c == ')' || c == '<' || c == '>' || c == '!':
			toks = append(toks, string(c))
			i++
		case c == '-' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(src) && (src[j] == '.' || (src[j] >= '0' && src[j] <= '9')) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		case isIdentStart(rune(c)):
			j := i + 1
			for j < len(src) && isIdentRune(rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			toks = append(toks, string(c))
			i++
		}
	}
	return toks
}
