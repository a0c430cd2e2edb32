package lang

import (
	"fmt"
	"strings"

	"fuzzybarrier/internal/ir"
)

// Program is a parsed source program: array declarations followed by
// statements.
type Program struct {
	Arrays []ArrayDecl
	Body   []Stmt
}

// ArrayDecl declares an integer array with constant dimensions, e.g.
// "int P[3][3];".
type ArrayDecl struct {
	Name string
	Dims []int64
}

// Size returns the total number of elements.
func (d ArrayDecl) Size() int64 {
	n := int64(1)
	for _, dim := range d.Dims {
		n *= dim
	}
	return n
}

// Stmt is a statement node.
type Stmt interface {
	stmt()
	render(sb *strings.Builder, indent int)
}

// ForStmt is "for (v = From; v Rel To; v++|v+=Step) [do seq|do par] body".
type ForStmt struct {
	Var  string
	From Expr
	Rel  ir.Rel
	To   Expr
	Step int64
	Par  bool // "do par": iterations are independent
	Body []Stmt
}

// IfStmt is "if (cond) then-branch [else else-branch]".
type IfStmt struct {
	Cond CondExpr
	Then []Stmt
	Else []Stmt
}

// AssignStmt is "lhs = rhs;".
type AssignStmt struct {
	LHS LValue
	RHS Expr
}

// LValue is a scalar variable or array element reference.
type LValue struct {
	Name    string
	Indices []Expr // nil for scalars
}

func (ForStmt) stmt()    {}
func (IfStmt) stmt()     {}
func (AssignStmt) stmt() {}

// CondExpr is a comparison.
type CondExpr struct {
	L   Expr
	Rel ir.Rel
	R   Expr
}

// Expr is an expression node.
type Expr interface {
	expr()
	String() string
}

// NumExpr is an integer literal.
type NumExpr struct{ Val int64 }

// VarExpr is a scalar variable reference.
type VarExpr struct{ Name string }

// IndexExpr is an array element read, e.g. P[i][j+1].
type IndexExpr struct {
	Name    string
	Indices []Expr
}

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	Op   ir.Op // Add, Sub, Mul, Div, Mod
	L, R Expr
}

func (NumExpr) expr()   {}
func (VarExpr) expr()   {}
func (IndexExpr) expr() {}
func (BinExpr) expr()   {}

func (e NumExpr) String() string { return fmt.Sprint(e.Val) }
func (e VarExpr) String() string { return e.Name }

func (e IndexExpr) String() string {
	var sb strings.Builder
	sb.WriteString(e.Name)
	for _, idx := range e.Indices {
		fmt.Fprintf(&sb, "[%s]", idx)
	}
	return sb.String()
}

func (e BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (v LValue) String() string { return IndexExpr(v).String() }

func pad(sb *strings.Builder, indent int) {
	for i := 0; i < indent; i++ {
		sb.WriteString("    ")
	}
}

func (s *ForStmt) render(sb *strings.Builder, indent int) {
	pad(sb, indent)
	mode := "seq"
	if s.Par {
		mode = "par"
	}
	step := "++"
	if s.Step != 1 {
		step = fmt.Sprintf("+=%d", s.Step)
	}
	fmt.Fprintf(sb, "for (%s=%s; %s%s%s; %s%s) do %s {\n",
		s.Var, s.From, s.Var, s.Rel, s.To, s.Var, step, mode)
	for _, st := range s.Body {
		st.render(sb, indent+1)
	}
	pad(sb, indent)
	sb.WriteString("}\n")
}

func (s *IfStmt) render(sb *strings.Builder, indent int) {
	pad(sb, indent)
	fmt.Fprintf(sb, "if (%s %s %s) {\n", s.Cond.L, s.Cond.Rel, s.Cond.R)
	for _, st := range s.Then {
		st.render(sb, indent+1)
	}
	pad(sb, indent)
	if len(s.Else) > 0 {
		sb.WriteString("} else {\n")
		for _, st := range s.Else {
			st.render(sb, indent+1)
		}
		pad(sb, indent)
	}
	sb.WriteString("}\n")
}

func (s *AssignStmt) render(sb *strings.Builder, indent int) {
	pad(sb, indent)
	fmt.Fprintf(sb, "%s = %s;\n", s.LHS, s.RHS)
}

// String pretty-prints the program.
func (p *Program) String() string {
	var sb strings.Builder
	for _, a := range p.Arrays {
		fmt.Fprintf(&sb, "int %s", a.Name)
		for _, d := range a.Dims {
			fmt.Fprintf(&sb, "[%d]", d)
		}
		sb.WriteString(";\n")
	}
	for _, s := range p.Body {
		s.render(&sb, 0)
	}
	return sb.String()
}

// Array returns the declaration of a named array.
func (p *Program) Array(name string) (ArrayDecl, bool) {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a, true
		}
	}
	return ArrayDecl{}, false
}
