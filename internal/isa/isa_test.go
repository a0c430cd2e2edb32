package isa

import (
	"errors"
	"strings"
	"testing"
)

func TestOpStrings(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "OP(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if Op(200).String() != "OP(200)" {
		t.Errorf("unknown opcode string = %q", Op(200).String())
	}
	if Op(200).Valid() {
		t.Error("opcode 200 reported valid")
	}
}

func TestOpClassification(t *testing.T) {
	branches := []Op{BR, BEQ, BNE, BLT, BLE, BGT, BGE}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%v should be a branch", op)
		}
	}
	if BR.IsConditional() {
		t.Error("BR is unconditional")
	}
	if !BEQ.IsConditional() {
		t.Error("BEQ is conditional")
	}
	for _, op := range []Op{LD, ST, FAA} {
		if !op.IsMemory() {
			t.Errorf("%v should be a memory op", op)
		}
	}
	if ADD.IsMemory() || ADD.IsBranch() {
		t.Error("ADD misclassified")
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("t")
	b.Ldi(1, 42).Addi(2, 1, 8).Add(3, 1, 2).Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("len = %d, want 4", p.Len())
	}
	if p.Code[0].Op != LDI || p.Code[0].Imm != 42 {
		t.Errorf("instr 0 = %v", p.Code[0])
	}
}

func TestBuilderLabelsResolve(t *testing.T) {
	b := NewBuilder("t")
	b.Ldi(1, 0).Ldi(2, 3)
	b.Label("loop").Addi(1, 1, 1).CondBr(BLT, 1, 2, "loop").Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[3].Target != 2 {
		t.Errorf("branch target = %d, want 2", p.Code[3].Target)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := map[string]func(b *Builder){
		"undefined label": func(b *Builder) { b.Br("nowhere") },
		"duplicate label": func(b *Builder) { b.Label("x").Nop().Label("x").Nop() },
		"bad alu op":      func(b *Builder) { b.Alu(LDI, 1, 2, 3) },
		"bad alui op":     func(b *Builder) { b.AluI(ADD, 1, 2, 3) },
		"bad condbr":      func(b *Builder) { b.CondBr(BR, 1, 2, "l") },
		"comment first":   func(b *Builder) { b.Comment("nothing yet") },
	}
	for name, f := range cases {
		b := NewBuilder(name)
		f(b)
		if name == "undefined label" {
			// labels are checked at Build time, others at call time.
		}
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: expected Build error", name)
		}
	}
}

func TestTrailingLabelGetsLandingPad(t *testing.T) {
	b := NewBuilder("t")
	b.Ldi(1, 1).Br("end").Label("end")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 || p.Code[2].Op != NOP {
		t.Fatalf("expected trailing NOP landing pad, got %v", p.Code)
	}
}

func TestRegions(t *testing.T) {
	b := NewBuilder("t")
	b.Ldi(1, 0)               // non-barrier
	b.InBarrier().Nop().Nop() // barrier x2
	b.InNonBarrier().Work(5)  // non-barrier
	b.InBarrier().Nop()       // barrier
	b.InNonBarrier().Halt()   // non-barrier
	p := b.MustBuild()
	regions := p.Regions()
	wantLens := []int{1, 2, 1, 1, 1}
	wantBar := []bool{false, true, false, true, false}
	if len(regions) != len(wantLens) {
		t.Fatalf("regions = %d, want %d: %+v", len(regions), len(wantLens), regions)
	}
	for i, r := range regions {
		if r.Len() != wantLens[i] || r.Barrier != wantBar[i] {
			t.Errorf("region %d = %+v, want len %d barrier %v", i, r, wantLens[i], wantBar[i])
		}
	}
}

func TestValidateForwardCrossBarrierBranch(t *testing.T) {
	b := NewBuilder("fig2")
	b.InBarrier().Nop().Br("bar2")
	b.InNonBarrier().Work(5)
	b.InBarrier().Label("bar2").Nop()
	b.InNonBarrier().Halt()
	p := b.MustBuild()
	err := p.Validate(false)
	if !errors.Is(err, ErrInvalidBranch) {
		t.Fatalf("err = %v, want ErrInvalidBranch", err)
	}
	if err := p.Validate(true); err != nil {
		t.Fatalf("allowCrossBarrier should accept: %v", err)
	}
}

func TestValidateBackwardBarrierBranchIsLegal(t *testing.T) {
	// The canonical loop whose barrier region spans the back edge:
	// [barrier: init][non-barrier: body][barrier: k++, blt -> init].
	b := NewBuilder("loop")
	b.InBarrier().Ldi(1, 0).Label("head").Nop()
	b.InNonBarrier().Work(5)
	b.InBarrier().Addi(1, 1, 1).Ldi(2, 4).CondBr(BLT, 1, 2, "head")
	b.InNonBarrier().Halt()
	p := b.MustBuild()
	if err := p.Validate(false); err != nil {
		t.Fatalf("backward barrier branch must be legal: %v", err)
	}
}

func TestValidateBranchWithinRegionIsLegal(t *testing.T) {
	b := NewBuilder("if-in-region")
	b.InBarrier().
		Ldi(1, 1).Ldi(2, 0).
		CondBr(BEQ, 1, 2, "else").
		Work(3).Br("join").
		Label("else").Work(9).
		Label("join").Nop()
	b.InNonBarrier().Halt()
	p := b.MustBuild()
	if err := p.Validate(false); err != nil {
		t.Fatalf("branches within one region must be legal: %v", err)
	}
}

func TestValidateRejectsBadTargets(t *testing.T) {
	p := &Program{Name: "bad", Code: []Instr{{Op: BR, Target: 99}}}
	if err := p.Validate(false); err == nil {
		t.Error("out-of-range target accepted")
	}
	p = &Program{Name: "bad", Code: []Instr{{Op: WORK, Imm: -1}}}
	if err := p.Validate(false); err == nil {
		t.Error("negative WORK accepted")
	}
	p = &Program{Name: "bad", Code: []Instr{{Op: ADD, Rd: 200}}}
	if err := p.Validate(false); err == nil {
		t.Error("register out of range accepted")
	}
}

func TestMarkerModeNesting(t *testing.T) {
	good := NewMarkerBuilder("ok")
	good.Nop()
	good.InBarrier().Nop()
	good.InNonBarrier().Halt()
	p := good.MustBuild()
	if err := p.Validate(false); err != nil {
		t.Fatalf("well-nested markers rejected: %v", err)
	}
	// BENTER while inside.
	bad := &Program{Name: "bad", Mode: ModeMarker, Code: []Instr{
		{Op: BENTER}, {Op: BENTER},
	}}
	if err := bad.Validate(false); err == nil {
		t.Error("double BENTER accepted")
	}
	bad = &Program{Name: "bad", Mode: ModeMarker, Code: []Instr{{Op: BEXIT}}}
	if err := bad.Validate(false); err == nil {
		t.Error("BEXIT outside region accepted")
	}
}

func TestMarkerModeRegionMembership(t *testing.T) {
	b := NewMarkerBuilder("m")
	b.Nop()               // 0: outside
	b.InBarrier().Work(2) // 1: BENTER, 2: WORK
	b.InNonBarrier()      // 3: BEXIT
	b.Halt()              // 4: outside
	p := b.MustBuild()
	want := []bool{false, true, true, true, false}
	for i, w := range want {
		if got := p.InBarrierRegion(i); got != w {
			t.Errorf("InBarrierRegion(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestDisassembleContainsLabelsAndComments(t *testing.T) {
	b := NewBuilder("d")
	b.Label("start").Ldi(1, 7).Comment("seven")
	b.InBarrier().Work(3)
	b.InNonBarrier().Br("start")
	p := b.MustBuild()
	out := p.Disassemble()
	for _, want := range []string{"start:", "LDI r1, 7", "seven", "WORK 3", "!b", "BR start"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := map[string]Instr{
		"ADD r1, r2, r3":          {Op: ADD, Rd: 1, Rs: 2, Rt: 3},
		"LDI r4, -7":              {Op: LDI, Rd: 4, Imm: -7},
		"LD r1, 8(r2)":            {Op: LD, Rd: 1, Rs: 2, Imm: 8},
		"ST r3, 0(r2)":            {Op: ST, Rt: 3, Rs: 2},
		"FAA r1, 4(r2), r3":       {Op: FAA, Rd: 1, Rs: 2, Imm: 4, Rt: 3},
		"BARRIER tag=2, mask=0x5": {Op: BARRIER, Imm: 2, Imm2: 5},
		"WORK 9":                  {Op: WORK, Imm: 9},
		"WORKR r5":                {Op: WORKR, Rs: 5},
		"MOV r1, r2":              {Op: MOV, Rd: 1, Rs: 2},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
