// Package ir defines the three-address intermediate code the paper's
// compiler examples use (Figure 4): temporaries T1, T2, ..., scalar
// variables, explicit address arithmetic, and bracketed loads/stores
// ("T11 = [T5] + [T10]", "[T28] = T24").
//
// The compiler front end (internal/lang + internal/compiler) lowers loop
// nests to this form; the dependence DAG and the three-phase reordering of
// Section 4 operate on it; codegen lowers it to internal/isa machine code
// with barrier-region bits.
package ir

import "fmt"

// OperandKind classifies an instruction operand.
type OperandKind int

// Operand kinds.
const (
	KindNone  OperandKind = iota
	KindTemp              // compiler temporary Tn
	KindVar               // named scalar variable (i, j, k, ...)
	KindConst             // integer literal
	KindBase              // array base address symbol (the "P" of "T3 = T2 + P")
)

// Operand is a value referenced by a TAC instruction.
type Operand struct {
	Kind OperandKind
	ID   int    // temp number (KindTemp)
	Name string // variable or base symbol name (KindVar, KindBase)
	Val  int64  // literal value (KindConst)
}

// Temp returns a temporary operand Tn.
func Temp(n int) Operand { return Operand{Kind: KindTemp, ID: n} }

// Var returns a named scalar operand.
func Var(name string) Operand { return Operand{Kind: KindVar, Name: name} }

// Const returns a literal operand.
func Const(v int64) Operand { return Operand{Kind: KindConst, Val: v} }

// Base returns an array base-address operand.
func Base(name string) Operand { return Operand{Kind: KindBase, Name: name} }

// IsZero reports whether the operand is unset.
func (o Operand) IsZero() bool { return o.Kind == KindNone }

// String renders the operand in the paper's notation.
func (o Operand) String() string {
	switch o.Kind {
	case KindTemp:
		return fmt.Sprintf("T%d", o.ID)
	case KindVar:
		return o.Name
	case KindConst:
		return fmt.Sprintf("%d", o.Val)
	case KindBase:
		return o.Name
	}
	return "?"
}

// Op is a TAC operation.
type Op int

// TAC operations.
const (
	Nop    Op = iota
	Assign    // Dst = A
	Add       // Dst = A + B
	Sub       // Dst = A - B
	Mul       // Dst = A * B
	Div       // Dst = A / B
	Mod       // Dst = A % B
	Load      // Dst = [A]
	Store     // [A] = B
	Goto      // goto Target
	IfGoto    // if A Rel B goto Target
	Label     // Target:
)

// String returns the operator symbol for arithmetic ops.
func (op Op) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Rel is a comparison operator for IfGoto.
type Rel int

// Comparison operators.
const (
	LT Rel = iota
	LE
	GT
	GE
	EQ
	NE
)

// String renders the comparison operator.
func (r Rel) String() string {
	switch r {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "=="
	case NE:
		return "!="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Negate returns the complementary comparison.
func (r Rel) Negate() Rel {
	switch r {
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	case EQ:
		return NE
	case NE:
		return EQ
	}
	return r
}

// Instr is one TAC instruction.
//
// Marked flags the instructions that must stay in the non-barrier region:
// those that "either access a value computed by another processor or
// compute a value that will be accessed by another processor" (Section 4).
// Barrier flags membership in a barrier region; it is assigned by region
// construction and carried through to machine code.
type Instr struct {
	Op      Op
	Dst     Operand // result (Assign/arith/Load); address for Store
	A       Operand // first source; address for Load
	B       Operand // second source; value for Store
	Rel     Rel     // IfGoto comparison
	Target  string  // label name (Goto/IfGoto/Label)
	Marked  bool
	Barrier bool
	Comment string
}

// String renders the instruction in the paper's style.
func (in Instr) String() string {
	body := func() string {
		switch in.Op {
		case Nop:
			return "nop"
		case Assign:
			return fmt.Sprintf("%s = %s", in.Dst, in.A)
		case Add, Sub, Mul, Div, Mod:
			return fmt.Sprintf("%s = %s %s %s", in.Dst, in.A, in.Op, in.B)
		case Load:
			return fmt.Sprintf("%s = [%s]", in.Dst, in.A)
		case Store:
			return fmt.Sprintf("[%s] = %s", in.Dst, in.B)
		case Goto:
			return fmt.Sprintf("goto %s", in.Target)
		case IfGoto:
			return fmt.Sprintf("if %s %s %s goto %s", in.A, in.Rel, in.B, in.Target)
		case Label:
			return in.Target + ":"
		}
		return "?"
	}()
	if in.Comment != "" {
		return body + "    /* " + in.Comment + " */"
	}
	return body
}

// Defs returns the operand the instruction defines, if any. Stores define
// memory, not an operand; see WritesMemory.
func (in Instr) Defs() (Operand, bool) {
	switch in.Op {
	case Assign, Add, Sub, Mul, Div, Mod, Load:
		return in.Dst, true
	}
	return Operand{}, false
}

// Uses returns the operands the instruction reads.
func (in Instr) Uses() []Operand {
	var out []Operand
	add := func(o Operand) {
		if o.Kind == KindTemp || o.Kind == KindVar {
			out = append(out, o)
		}
	}
	switch in.Op {
	case Assign:
		add(in.A)
	case Add, Sub, Mul, Div, Mod:
		add(in.A)
		add(in.B)
	case Load:
		add(in.A)
	case Store:
		add(in.Dst) // address
		add(in.B)   // value
	case IfGoto:
		add(in.A)
		add(in.B)
	}
	return out
}

// ReadsMemory reports whether the instruction loads from memory.
func (in Instr) ReadsMemory() bool { return in.Op == Load }

// WritesMemory reports whether the instruction stores to memory.
func (in Instr) WritesMemory() bool { return in.Op == Store }

// IsControl reports whether the instruction affects control flow (or is a
// label): control instructions pin the ends of straight-line segments and
// are never reordered across.
func (in Instr) IsControl() bool {
	switch in.Op {
	case Goto, IfGoto, Label:
		return true
	}
	return false
}
