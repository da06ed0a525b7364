package sql

import (
	"strconv"
	"strings"
)

// reserved lists the contextual keywords that cannot be used as a bare
// (AS-less) column alias or consumed as an identifier operand, so the
// grammar's clause boundaries stay unambiguous.
var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"having": true, "order": true, "limit": true, "and": true, "or": true,
	"not": true, "between": true, "in": true, "join": true, "on": true,
	"inner": true, "as": true, "asc": true, "desc": true,
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks   []token
	i      int
	params []*Param // `?` placeholders in appearance order
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// accept consumes the current token if it matches the keyword/punct.
func (p *parser) accept(s string) bool {
	if p.cur().is(s) {
		p.i++
		return true
	}
	return false
}

// expect consumes a required keyword/punct or fails with a diagnostic.
func (p *parser) expect(s string) error {
	if p.accept(s) {
		return nil
	}
	return Errf(p.cur().pos, "expected %q, found %s", s, p.cur().describe())
}

// Parse parses one SELECT statement (with optional trailing semicolon).
func Parse(src string) (*Select, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if p.cur().kind != tokEOF {
		return nil, Errf(p.cur().pos, "unexpected %s after end of query", p.cur().describe())
	}
	sel.Params = p.params
	return sel, nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expect("select"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}

	// Projection list.
	if p.accept("*") {
		sel.Star = true
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			sel.Items = append(sel.Items, item)
			if !p.accept(",") {
				break
			}
		}
	}

	if err := p.expect("from"); err != nil {
		return nil, err
	}
	var onConds []Expr
	for {
		t := p.cur()
		if t.kind != tokIdent {
			return nil, Errf(t.pos, "expected table name, found %s", t.describe())
		}
		p.next()
		sel.From = append(sel.From, TableRef{P: t.pos, Name: strings.ToLower(t.text)})
		if p.accept(",") {
			continue
		}
		if p.cur().is("inner") && p.toks[p.i+1].is("join") {
			p.next()
		}
		if p.accept("join") {
			t := p.cur()
			if t.kind != tokIdent {
				return nil, Errf(t.pos, "expected table name after JOIN, found %s", t.describe())
			}
			p.next()
			sel.From = append(sel.From, TableRef{P: t.pos, Name: strings.ToLower(t.text)})
			if err := p.expect("on"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			onConds = append(onConds, cond)
			if p.accept(",") {
				continue
			}
			for p.cur().is("join") || (p.cur().is("inner") && p.toks[p.i+1].is("join")) {
				if p.cur().is("inner") {
					p.next()
				}
				p.next()
				t := p.cur()
				if t.kind != tokIdent {
					return nil, Errf(t.pos, "expected table name after JOIN, found %s", t.describe())
				}
				p.next()
				sel.From = append(sel.From, TableRef{P: t.pos, Name: strings.ToLower(t.text)})
				if err := p.expect("on"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				onConds = append(onConds, cond)
			}
		}
		break
	}

	if p.accept("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	// Fold JOIN...ON conditions into the WHERE conjunction.
	for _, c := range onConds {
		if sel.Where == nil {
			sel.Where = c
		} else {
			sel.Where = &Binary{P: c.Pos(), Op: OpAnd, L: sel.Where, R: c}
		}
	}

	if p.accept("group") {
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
	}

	if p.accept("having") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}

	if p.accept("order") {
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e, Item: -1}
			if p.accept("desc") {
				item.Desc = true
			} else {
				p.accept("asc")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}

	if p.accept("limit") {
		t := p.cur()
		if t.kind != tokNumber || strings.ContainsRune(t.text, '.') {
			return nil, Errf(t.pos, "expected integer after LIMIT, found %s", t.describe())
		}
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, Errf(t.pos, "bad LIMIT value %q", t.text)
		}
		p.next()
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept("as") {
		t := p.cur()
		if t.kind != tokIdent {
			return SelectItem{}, Errf(t.pos, "expected alias after AS, found %s", t.describe())
		}
		p.next()
		item.Alias = strings.ToLower(t.text)
	} else if t := p.cur(); t.kind == tokIdent && !reserved[strings.ToLower(t.text)] {
		p.next()
		item.Alias = strings.ToLower(t.text)
	}
	return item, nil
}

// parseExpr parses with standard precedence:
// OR < AND < NOT < comparison/BETWEEN/IN < +- < */ < unary < primary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().is("or") {
		pos := p.next().pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{P: pos, Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur().is("and") {
		pos := p.next().pos
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{P: pos, Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.cur().is("not") {
		pos := p.next().pos
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{P: pos, X: x}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokPunct {
		if op, ok := cmpOps[t.text]; ok {
			pos := p.next().pos
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{P: pos, Op: op, L: l, R: r}, nil
		}
	}
	negate := false
	pos := t.pos
	if t.is("not") && (p.toks[p.i+1].is("between") || p.toks[p.i+1].is("in")) {
		negate = true
		p.next()
	}
	switch {
	case p.accept("between"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{P: pos, X: l, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.accept("in"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &InList{P: pos, X: l, List: list, Negate: negate}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var op BinOp
		switch {
		case t.is("+"):
			op = OpAdd
		case t.is("-"):
			op = OpSub
		default:
			return l, nil
		}
		pos := p.next().pos
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{P: pos, Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var op BinOp
		switch {
		case t.is("*"):
			op = OpMul
		case t.is("/"):
			op = OpDiv
		default:
			return l, nil
		}
		pos := p.next().pos
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{P: pos, Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if t := p.cur(); t.is("-") {
		pos := p.next().pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Negation is 0 - x; the binder folds it for literals.
		return &Binary{P: pos, Op: OpSub, L: &NumLit{P: pos, Text: "0"}, R: x}, nil
	}
	return p.parsePrimary()
}

var aggFns = map[string]AggFn{"sum": AggSum, "count": AggCount, "min": AggMin, "max": AggMax}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		return &NumLit{P: t.pos, Text: t.text}, nil
	case tokString:
		p.next()
		return &StrLit{P: t.pos, Val: t.text}, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "?" {
			p.next()
			prm := &Param{P: t.pos, Idx: len(p.params)}
			p.params = append(p.params, prm)
			return prm, nil
		}
	case tokIdent:
		low := strings.ToLower(t.text)
		// DATE 'YYYY-MM-DD' literal.
		if low == "date" && p.toks[p.i+1].kind == tokString {
			p.next()
			st := p.next()
			days, ok := parseDate(st.text)
			if !ok {
				return nil, Errf(st.pos, "bad date literal '%s' (want 'YYYY-MM-DD')", st.text)
			}
			return &DateLit{P: t.pos, Text: st.text, Days: days}, nil
		}
		// Aggregate call.
		if fn, ok := aggFns[low]; ok && p.toks[p.i+1].is("(") {
			p.next()
			p.next()
			if fn == AggCount && p.accept("*") {
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return &Agg{P: t.pos, Fn: fn, Star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &Agg{P: t.pos, Fn: fn, Arg: arg}, nil
		}
		if reserved[low] {
			return nil, Errf(t.pos, "unexpected keyword %s", t.describe())
		}
		p.next()
		ref := &ColRef{P: t.pos, Name: low}
		if p.cur().is(".") && p.toks[p.i+1].kind == tokIdent {
			p.next()
			ct := p.next()
			ref.Table = low
			ref.Name = strings.ToLower(ct.text)
		}
		return ref, nil
	}
	return nil, Errf(t.pos, "expected expression, found %s", t.describe())
}

// parseDate validates and converts a 'YYYY-MM-DD' literal to days since
// 1970-01-01 without panicking on malformed input.
func parseDate(s string) (int32, bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	num := func(sub string) (int, bool) {
		n := 0
		for i := 0; i < len(sub); i++ {
			c := sub[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
		}
		return n, true
	}
	y, ok1 := num(s[0:4])
	m, ok2 := num(s[5:7])
	d, ok3 := num(s[8:10])
	if !ok1 || !ok2 || !ok3 || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, false
	}
	return civilToDays(y, m, d), true
}

// civilToDays mirrors types.MakeDate (Howard Hinnant's days_from_civil)
// so date literals land in the engines' physical representation.
func civilToDays(y, m, d int) int32 {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 {
		era = (y - 399) / 400
	}
	yoe := y - era*400
	mAdj := m + 9
	if m > 2 {
		mAdj = m - 3
	}
	doy := (153*mAdj+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int32(era*146097 + doe - 719468)
}

// Tables parses the query just enough to report the FROM table names —
// the database-routing hook for ad-hoc SQL.
func Tables(src string) ([]string, error) {
	sel, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return sel.Tables(), nil
}

// Tables lists the statement's FROM table names.
func (s *Select) Tables() []string {
	names := make([]string, len(s.From))
	for i, t := range s.From {
		names[i] = t.Name
	}
	return names
}

// IsQuery reports whether the text looks like ad-hoc SQL rather than a
// named query — the dispatch hook of registry.Run and the service's
// door check.
func IsQuery(text string) bool {
	t := strings.TrimSpace(text)
	if len(t) < 6 || !strings.EqualFold(t[:6], "select") {
		return false
	}
	return len(t) == 6 || !isIdentPart(t[6])
}
