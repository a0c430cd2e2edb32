package lang

import (
	"fmt"

	"fuzzybarrier/internal/ir"
)

// Parse parses a source program.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	if err := prog.check(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse that panics on error; for statically known programs
// in tests and workload generators.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) at(text string) bool {
	t := p.cur()
	return (t.Kind == tokPunct || t.Kind == tokKeyword) && t.Text == text
}

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if p.accept(text) {
		return nil
	}
	t := p.cur()
	return fmt.Errorf("lang: %d:%d: expected %q, found %s", t.line, t.col, text, t)
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.Kind != tokIdent {
		return "", fmt.Errorf("lang: %d:%d: expected identifier, found %s", t.line, t.col, t)
	}
	p.advance()
	return t.Text, nil
}

func (p *parser) program() (*Program, error) {
	prog := &Program{}
	for p.at("int") {
		p.advance()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		decl := ArrayDecl{Name: name}
		for p.accept("[") {
			t := p.cur()
			if t.Kind != tokNumber {
				return nil, fmt.Errorf("lang: %d:%d: array dimensions must be integer literals, found %s", t.line, t.col, t)
			}
			if t.Val <= 0 {
				return nil, fmt.Errorf("lang: %d:%d: array dimension must be positive, found %d", t.line, t.col, t.Val)
			}
			decl.Dims = append(decl.Dims, t.Val)
			p.advance()
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		if len(decl.Dims) == 0 {
			return nil, fmt.Errorf("lang: scalar declarations are implicit; %q needs dimensions", name)
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		prog.Arrays = append(prog.Arrays, decl)
	}
	for p.cur().Kind != tokEOF {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, s)
	}
	return prog, nil
}

func (p *parser) block() ([]Stmt, error) {
	if p.accept("{") {
		var out []Stmt
		for !p.at("}") {
			if p.cur().Kind == tokEOF {
				return nil, fmt.Errorf("lang: unexpected end of input inside block")
			}
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		p.advance()
		return out, nil
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

func (p *parser) stmt() (Stmt, error) {
	switch {
	case p.at("for"):
		return p.forStmt()
	case p.at("if"):
		return p.ifStmt()
	default:
		return p.assignStmt()
	}
}

func (p *parser) forStmt() (Stmt, error) {
	p.advance() // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	from, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	v2, err := p.ident()
	if err != nil {
		return nil, err
	}
	if v2 != v {
		return nil, fmt.Errorf("lang: loop condition tests %q, expected loop variable %q", v2, v)
	}
	rel, err := p.relop()
	if err != nil {
		return nil, err
	}
	to, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	v3, err := p.ident()
	if err != nil {
		return nil, err
	}
	if v3 != v {
		return nil, fmt.Errorf("lang: loop increment updates %q, expected loop variable %q", v3, v)
	}
	step := int64(1)
	switch {
	case p.accept("++"):
	case p.accept("+="):
		t := p.cur()
		if t.Kind != tokNumber {
			return nil, fmt.Errorf("lang: %d:%d: loop step must be an integer literal", t.line, t.col)
		}
		step = t.Val
		p.advance()
	default:
		t := p.cur()
		return nil, fmt.Errorf("lang: %d:%d: expected ++ or +=, found %s", t.line, t.col, t)
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	par := false
	if p.accept("do") {
		switch {
		case p.accept("par"):
			par = true
		case p.accept("seq"):
		default:
			t := p.cur()
			return nil, fmt.Errorf("lang: %d:%d: expected seq or par after do, found %s", t.line, t.col, t)
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Var: v, From: from, Rel: rel, To: to, Step: step, Par: par, Body: body}, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	p.advance() // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	l, err := p.expr()
	if err != nil {
		return nil, err
	}
	rel, err := p.relop()
	if err != nil {
		return nil, err
	}
	r, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	p.accept("then") // optional, matching the paper's "if cond then S2 else S3"
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.accept("else") {
		els, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Cond: CondExpr{L: l, Rel: rel, R: r}, Then: then, Else: els}, nil
}

func (p *parser) assignStmt() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	lv := LValue{Name: name}
	for p.accept("[") {
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		lv.Indices = append(lv.Indices, idx)
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &AssignStmt{LHS: lv, RHS: rhs}, nil
}

func (p *parser) relop() (ir.Rel, error) {
	for _, cand := range []struct {
		text string
		rel  ir.Rel
	}{
		{"<=", ir.LE}, {">=", ir.GE}, {"==", ir.EQ}, {"!=", ir.NE},
		{"<", ir.LT}, {">", ir.GT},
	} {
		if p.accept(cand.text) {
			return cand.rel, nil
		}
	}
	t := p.cur()
	return 0, fmt.Errorf("lang: %d:%d: expected comparison operator, found %s", t.line, t.col, t)
}

// expr parses additive expressions; term handles * / %; factor handles
// literals, variables, array references and parentheses.
func (p *parser) expr() (Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		var op ir.Op
		switch {
		case p.accept("+"):
			op = ir.Add
		case p.accept("-"):
			op = ir.Sub
		default:
			return l, nil
		}
		r, err := p.term()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) term() (Expr, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		var op ir.Op
		switch {
		case p.accept("*"):
			op = ir.Mul
		case p.accept("/"):
			op = ir.Div
		case p.accept("%"):
			op = ir.Mod
		default:
			return l, nil
		}
		r, err := p.factor()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) factor() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == tokNumber:
		p.advance()
		return NumExpr{Val: t.Val}, nil
	case t.Kind == tokIdent:
		p.advance()
		if !p.at("[") {
			return VarExpr{Name: t.Text}, nil
		}
		e := IndexExpr{Name: t.Text}
		for p.accept("[") {
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			e.Indices = append(e.Indices, idx)
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		return e, nil
	case p.accept("("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.accept("-"):
		e, err := p.factor()
		if err != nil {
			return nil, err
		}
		return BinExpr{Op: ir.Sub, L: NumExpr{Val: 0}, R: e}, nil
	}
	return nil, fmt.Errorf("lang: %d:%d: expected expression, found %s", t.line, t.col, t)
}

// check verifies semantic constraints: array references must match the
// declared rank and refer to declared arrays.
func (p *Program) check() error {
	var checkExpr func(e Expr) error
	checkIndex := func(name string, n int) error {
		d, ok := p.Array(name)
		if !ok {
			return fmt.Errorf("lang: reference to undeclared array %q", name)
		}
		if len(d.Dims) != n {
			return fmt.Errorf("lang: array %q has rank %d, referenced with %d indices", name, len(d.Dims), n)
		}
		return nil
	}
	checkExpr = func(e Expr) error {
		switch v := e.(type) {
		case BinExpr:
			if err := checkExpr(v.L); err != nil {
				return err
			}
			return checkExpr(v.R)
		case IndexExpr:
			if err := checkIndex(v.Name, len(v.Indices)); err != nil {
				return err
			}
			for _, idx := range v.Indices {
				if err := checkExpr(idx); err != nil {
					return err
				}
			}
		case VarExpr:
			if _, isArray := p.Array(v.Name); isArray {
				return fmt.Errorf("lang: array %q used as a scalar", v.Name)
			}
		}
		return nil
	}
	var checkStmts func(ss []Stmt) error
	checkStmts = func(ss []Stmt) error {
		for _, s := range ss {
			switch v := s.(type) {
			case *AssignStmt:
				if len(v.LHS.Indices) > 0 {
					if err := checkIndex(v.LHS.Name, len(v.LHS.Indices)); err != nil {
						return err
					}
					for _, idx := range v.LHS.Indices {
						if err := checkExpr(idx); err != nil {
							return err
						}
					}
				} else if _, isArray := p.Array(v.LHS.Name); isArray {
					return fmt.Errorf("lang: array %q assigned as a scalar", v.LHS.Name)
				}
				if err := checkExpr(v.RHS); err != nil {
					return err
				}
			case *ForStmt:
				if err := checkExpr(v.From); err != nil {
					return err
				}
				if err := checkExpr(v.To); err != nil {
					return err
				}
				if v.Step <= 0 {
					return fmt.Errorf("lang: loop over %q has non-positive step %d", v.Var, v.Step)
				}
				if err := checkStmts(v.Body); err != nil {
					return err
				}
			case *IfStmt:
				if err := checkExpr(v.Cond.L); err != nil {
					return err
				}
				if err := checkExpr(v.Cond.R); err != nil {
					return err
				}
				if err := checkStmts(v.Then); err != nil {
					return err
				}
				if err := checkStmts(v.Else); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return checkStmts(p.Body)
}
