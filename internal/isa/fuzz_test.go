package isa

import (
	"strings"
	"testing"
)

// FuzzAssemble exercises the assembler against arbitrary text: it must
// never panic, and anything it accepts must disassemble, re-render
// through AsmText and re-assemble to an equivalent program.
func FuzzAssemble(f *testing.F) {
	f.Add(sampleAsm)
	f.Add(".program x\n    NOP\n    HALT\n")
	f.Add("loop: WORK 3\n BR loop\n")
	f.Add(".mode marker\nBENTER\nNOP\nBEXIT\nHALT\n")
	f.Add("LD r1, 4(r2)\nST r1, 0(r2)\nFAA r3, 8(r4), r5\n")
	f.Add(".barrier\nBARRIER 1, 3\n.nonbarrier\nHALT")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		_ = p.Disassemble()
		text := p.AsmText()
		p2, err := Assemble(text)
		if err != nil {
			t.Fatalf("AsmText output rejected: %v\n%s", err, text)
		}
		if p2.Len() != p.Len() {
			t.Fatalf("round trip changed length %d -> %d", p.Len(), p2.Len())
		}
	})
}

// FuzzValidate throws arbitrary instruction encodings at Validate.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, true)
	f.Add([]byte{30, 30, 30}, false)
	f.Fuzz(func(t *testing.T, ops []byte, marker bool) {
		if len(ops) == 0 || len(ops) > 64 {
			return
		}
		p := &Program{Name: "fuzz"}
		if marker {
			p.Mode = ModeMarker
		}
		for i, op := range ops {
			p.Code = append(p.Code, Instr{
				Op:      Op(op % 40),
				Rd:      Reg(op % 80),
				Rs:      Reg((op + 1) % 80),
				Rt:      Reg((op + 2) % 80),
				Target:  int(op) % (len(ops) + 4),
				Barrier: i%3 == 0,
				Imm:     int64(op) - 10,
			})
		}
		_ = p.Validate(false) // must not panic
		_ = p.Validate(true)
		_ = p.Regions()
		if strings.Contains(p.Disassemble(), "\x00") {
			t.Skip()
		}
	})
}
