package exp

import (
	"strconv"

	"fuzzybarrier/internal/compiler"
	"fuzzybarrier/internal/lang"
	"fuzzybarrier/internal/trace"
)

// fig9Source is the Figure 9 loop: the write a[j][i] and the read
// a[j-1][i-1] connect different processors both within an unrolled
// iteration pair (lexically forward dependence) and across iterations of
// the sequential loop (loop carried dependence).
const fig9Source = `
int a[17][9];
for (j=1; j<=16; j++) do seq
  for (i=1; i<=8; i++) do par {
    a[j][i] = a[j-1][i-1] + i*j;
  }
`

// E6LexicallyForward reproduces Figures 9 and 10: the unrolled loop with
// two distinct barrier regions per unrolled iteration, simulated under
// increasing cache-miss drift. The reordered fuzzy code tolerates drift
// that forces the point-barrier version to stall heavily.
func E6LexicallyForward() (*trace.Table, error) {
	const procs = 8
	t := trace.NewTable(
		"E6: lexically forward + loop carried dependences under drift (Figures 9-10)",
		"drift(missEveryN)", "mode", "stalls", "cycles", "syncs",
	)
	for _, missEvery := range []int{0, 9, 5, 3} {
		for _, mode := range []compiler.RegionMode{compiler.RegionPoint, compiler.RegionReorder} {
			prog := lang.MustParse(fig9Source)
			outer := prog.Body[0].(*lang.ForStmt)
			unrolled, err := compiler.UnrollSeq(outer, 2, nil)
			if err != nil {
				return nil, err
			}
			prog.Body[0] = unrolled
			_, res, err := compileAndRun(prog, procs, mode, missEvery)
			if err != nil {
				return nil, err
			}
			label := "none"
			if missEvery > 0 {
				label = "every " + strconv.Itoa(missEvery)
			}
			t.AddRow(label, mode.String(), res.TotalStalls(), res.Cycles, res.Syncs())
		}
	}
	t.AddNote("unrolling once yields two barrier regions per unrolled iteration: lexically-forward then loop-carried (Figure 10)")
	return t, nil
}
