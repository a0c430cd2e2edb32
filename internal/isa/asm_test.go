package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

const sampleAsm = `
; a small synchronizing loop
.program demo
    BARRIER 1, 0x2     ; sync with processor 1
    LDI  r1, 0
    LDI  r2, 4
loop:
    WORK 10
.barrier
    ADDI r1, r1, 1
    BLT  r1, r2, loop
.nonbarrier
    HALT
`

func TestAssembleSample(t *testing.T) {
	p, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" {
		t.Errorf("name = %q, want demo", p.Name)
	}
	if err := p.Validate(false); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if p.Code[5].Target != 3 {
		t.Fatalf("BLT to loop targets %d, want 3", p.Code[5].Target)
	}
	if !p.Code[4].Barrier || p.Code[3].Barrier {
		t.Errorf("barrier bits wrong: %v %v", p.Code[3], p.Code[4])
	}
	if p.Code[0].Op != BARRIER || p.Code[0].Imm2 != 2 {
		t.Errorf("barrier init = %v", p.Code[0])
	}
	if p.Code[0].Comment != "sync with processor 1" {
		t.Errorf("comment = %q", p.Code[0].Comment)
	}
}

func TestAssembleAllForms(t *testing.T) {
	src := `
    NOP
    ADD r1, r2, r3
    SUB r1, r2, r3
    MUL r1, r2, r3
    DIV r1, r2, r3
    MOD r1, r2, r3
    AND r1, r2, r3
    OR  r1, r2, r3
    XOR r1, r2, r3
    SHL r1, r2, r3
    SHR r1, r2, r3
    SLT r1, r2, r3
    LDI r1, -5
    MOV r1, r2
    ADDI r1, r2, 3
    SUBI r1, r2, 3
    MULI r1, r2, 3
    DIVI r1, r2, 3
    LD  r1, 4(r2)
    ST  r1, 4(r2)
    FAA r1, 4(r2), r3
here:
    BR  here
    BEQ r1, r2, here
    BNE r1, r2, here
    BLT r1, r2, here
    BLE r1, r2, here
    BGT r1, r2, here
    BGE r1, r2, here
    BARRIER 3, 0xF
    WORK 7
    WORKR r4
    HALT
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(false); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 32 {
		t.Errorf("len = %d, want 32", p.Len())
	}
}

func TestAssembleMarkerMode(t *testing.T) {
	src := `
.mode marker
    NOP
    BENTER
    WORK 3
    BEXIT
    HALT
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeMarker {
		t.Fatalf("mode = %v, want marker", p.Mode)
	}
	if err := p.Validate(false); err != nil {
		t.Fatal(err)
	}
	if !p.InBarrierRegion(2) || p.InBarrierRegion(4) {
		t.Error("marker region membership wrong")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":  "FROB r1, r2",
		"bad register":      "LDI rx, 5",
		"register range":    "LDI r99, 5",
		"bad immediate":     "LDI r1, abc",
		"operand count":     "ADD r1, r2",
		"bad mem operand":   "LD r1, r2",
		"unknown directive": ".bogus",
		"bad mode":          ".mode hexagonal",
		"undefined label":   "BR nowhere",
		"malformed label":   "two words: NOP",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected error for %q", name, src)
		}
	}
}

// TestAssembleDisassembleAgree: disassembling an assembled program and
// reading the mnemonics back must describe the same instructions, and
// both renderings name a branch target by its label.
func TestAssembleDisassembleAgree(t *testing.T) {
	p, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Disassemble()
	for _, want := range []string{"BARRIER tag=1, mask=0x2", "WORK 10", "ADDI r1, r1, 1", "BLT r1, r2, loop", "HALT", "loop:"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	text := p.AsmText()
	for _, want := range []string{"BARRIER tag=1, mask=0x2", "BLT r1, r2, loop", "loop:"} {
		if !strings.Contains(text, want) {
			t.Errorf("AsmText missing %q:\n%s", want, text)
		}
	}
}

// TestBuilderProgramsAlwaysValidate is a property test: programs built
// with the Builder's structured region switching (no explicit branches
// between regions) always pass validation.
func TestBuilderProgramsAlwaysValidate(t *testing.T) {
	f := func(pattern []bool, seed uint8) bool {
		if len(pattern) == 0 || len(pattern) > 40 {
			return true
		}
		b := NewBuilder("prop")
		label := ""
		for i, inBar := range pattern {
			if inBar {
				b.InBarrier()
			} else {
				b.InNonBarrier()
			}
			switch (int(seed) + i) % 4 {
			case 0:
				b.Nop()
			case 1:
				b.Work(int64(i%7) + 1)
			case 2:
				b.Addi(Reg(i%8+1), Reg(i%8+1), 1)
			case 3:
				if label != "" && !inBar {
					// Backward branch from non-barrier code: always legal.
					b.CondBr(BLT, 1, 2, label)
				} else {
					b.Nop()
				}
			}
			if i == len(pattern)/2 {
				lbl := "mid"
				b.Label(lbl)
				b.Nop()
				label = lbl
			}
		}
		b.InNonBarrier().Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		return p.Validate(false) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRegionsPartitionProgram is a property: the static regions always
// partition the instruction sequence with alternating barrier flags.
func TestRegionsPartitionProgram(t *testing.T) {
	f := func(bits []bool) bool {
		if len(bits) == 0 {
			return true
		}
		code := make([]Instr, len(bits))
		for i, bit := range bits {
			code[i] = Instr{Op: NOP, Barrier: bit}
		}
		p := &Program{Name: "prop", Code: code}
		regions := p.Regions()
		pos := 0
		for i, r := range regions {
			if r.Start != pos || r.Len() <= 0 {
				return false
			}
			if i > 0 && regions[i-1].Barrier == r.Barrier {
				return false // adjacent regions must alternate
			}
			for j := r.Start; j < r.End; j++ {
				if code[j].Barrier != r.Barrier {
					return false
				}
			}
			pos = r.End
		}
		return pos == len(code)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// equivalent compares two programs instruction by instruction, ignoring
// label names and comments.
func equivalent(a, b *Program) bool {
	if a.Len() != b.Len() || a.Mode != b.Mode {
		return false
	}
	for i := range a.Code {
		x, y := a.Code[i], b.Code[i]
		if x.Op != y.Op || x.Rd != y.Rd || x.Rs != y.Rs || x.Rt != y.Rt ||
			x.Imm != y.Imm || x.Imm2 != y.Imm2 || x.Barrier != y.Barrier {
			return false
		}
		if x.Op.IsBranch() && x.Target != y.Target {
			return false
		}
	}
	return true
}

func TestAsmTextRoundTrip(t *testing.T) {
	p1, err := Assemble(sampleAsm)
	if err != nil {
		t.Fatal(err)
	}
	text := p1.AsmText()
	p2, err := Assemble(text)
	if err != nil {
		t.Fatalf("re-assemble failed: %v\ntext:\n%s", err, text)
	}
	if !equivalent(p1, p2) {
		t.Errorf("round trip not equivalent:\noriginal:\n%s\nre-assembled:\n%s",
			p1.Disassemble(), p2.Disassemble())
	}
}

func TestAsmTextSynthesizesLabels(t *testing.T) {
	// A builder program whose branch target has no label name after
	// resolution must still round-trip.
	b := NewBuilder("syn the name!") // name needs sanitizing too
	b.Ldi(1, 0).Ldi(2, 3)
	b.Label("loop").Addi(1, 1, 1)
	b.InBarrier().CondBr(BLT, 1, 2, "loop")
	b.InNonBarrier().Halt()
	p1 := b.MustBuild()
	p2, err := Assemble(p1.AsmText())
	if err != nil {
		t.Fatalf("re-assemble: %v\n%s", err, p1.AsmText())
	}
	if !equivalent(p1, p2) {
		t.Error("round trip not equivalent")
	}
}

// TestAsmTextRoundTripProperty: builder-generated programs with random
// region patterns always round-trip through AsmText/Assemble.
func TestAsmTextRoundTripProperty(t *testing.T) {
	f := func(pattern []byte) bool {
		if len(pattern) == 0 || len(pattern) > 30 {
			return true
		}
		b := NewBuilder("prop")
		b.Label("top").Nop()
		for i, d := range pattern {
			if d%2 == 0 {
				b.InBarrier()
			} else {
				b.InNonBarrier()
			}
			switch d % 6 {
			case 0:
				b.Work(int64(d%9) + 1)
			case 1:
				b.Ldi(Reg(d%16), int64(d))
			case 2:
				b.Ld(Reg(d%8), Reg(d%8+1), int64(d%32))
			case 3:
				b.Faa(1, 2, int64(d%16), 3)
			case 4:
				b.BarrierInit(int64(d%7), uint64(d))
			case 5:
				if i%5 == 4 {
					b.CondBr(BGE, 1, 2, "top")
				} else {
					b.Nop()
				}
			}
		}
		b.InNonBarrier().Halt()
		p1, err := b.Build()
		if err != nil {
			return false
		}
		p2, err := Assemble(p1.AsmText())
		if err != nil {
			return false
		}
		return equivalent(p1, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
