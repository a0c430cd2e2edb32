package trace

import (
	"fmt"
	"strings"
	"testing"
)

func TestRecorderMarkAndGantt(t *testing.T) {
	r := NewRecorder(2)
	r.Mark(0, 0, KindExec)
	r.Mark(1, 0, KindBarrier)
	r.Mark(2, 0, KindStall)
	r.Mark(0, 1, KindWork)
	r.Mark(2, 1, KindSync)
	g := r.Gantt()
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 3 { // ruler + 2 lanes
		t.Fatalf("gantt lines = %d, want 3:\n%s", len(lines), g)
	}
	if !strings.Contains(lines[1], "=bS") {
		t.Errorf("lane 0 = %q, want to contain =bS", lines[1])
	}
	if !strings.Contains(lines[2], "w.*") {
		t.Errorf("lane 1 = %q, want to contain w.*", lines[2])
	}
}

func TestRecorderIgnoresOutOfRange(t *testing.T) {
	r := NewRecorder(1)
	r.Mark(0, 5, KindExec)  // lane out of range: ignored
	r.Mark(0, -1, KindExec) // negative: ignored
	if len(r.lanes[0]) != 0 {
		t.Errorf("lane 0 = %q, want the dropped marks absent", r.lanes[0])
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder enabled")
	}
	r.Mark(0, 0, KindExec) // must not panic
	r.Eventf(0, 0, "x")
	if r.Events() != nil {
		t.Error("nil recorder has events")
	}
	if r.Gantt() != "" {
		t.Error("nil recorder renders gantt")
	}
}

// TestZeroValueRecorderRecordsEvents pins the documented zero-value
// contract: a zero Recorder records events (it has no lanes, so Mark is
// dropped silently). This regressed when event recording was gated on a
// flag only NewRecorder set.
func TestZeroValueRecorderRecordsEvents(t *testing.T) {
	var r Recorder
	if !r.Enabled() {
		t.Error("zero-value recorder should be enabled")
	}
	r.Eventf(3, 1, "checkpoint %d", 7)
	r.Mark(0, 0, KindExec) // no lanes: dropped, must not panic
	evs := r.Events()
	if len(evs) != 1 || evs[0].What != "checkpoint 7" || evs[0].Cycle != 3 || evs[0].Proc != 1 {
		t.Fatalf("events = %+v, want one 'checkpoint 7' at cycle 3 proc 1", evs)
	}
	if r.Gantt() != "" {
		t.Errorf("zero-value recorder rendered lanes: %q", r.Gantt())
	}
}

func TestEventsSorted(t *testing.T) {
	r := NewRecorder(2)
	r.Eventf(5, 1, "later")
	r.Eventf(5, 0, "same cycle lower proc")
	r.Eventf(2, 1, "first")
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Cycle != 2 || evs[1].Proc != 0 || evs[2].Proc != 1 {
		t.Errorf("order wrong: %+v", evs)
	}
	if evs[2].What != "later" {
		t.Errorf("what = %q", evs[2].What)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Demo table", "name", "value", "ratio")
	tbl.AddRow("alpha", 42, 1.5)
	tbl.AddRow("beta", 7, 0.25)
	tbl.AddNote("a note with %d substitutions", 1)
	out := tbl.String()
	for _, want := range []string{"Demo table", "name", "alpha", "42", "1.5", "0.25", "note: a note with 1 substitutions", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.header) != 3 {
		t.Errorf("header = %v", tbl.header)
	}
}

func TestTableNumericAlignment(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(5)
	tbl.AddRow(12345)
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	// Right-aligned: the short number ends at the same column.
	last := lines[len(lines)-2]
	if !strings.HasSuffix(last, "5") || len(last) != len(lines[len(lines)-1]) {
		t.Errorf("alignment off:\n%s", tbl.String())
	}
}

func TestTableFloatTrimming(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(1.5)
	tbl.AddRow(2.0)
	tbl.AddRow(float32(0.25))
	out := tbl.String()
	if strings.Contains(out, "1.500") || strings.Contains(out, "2.000") {
		t.Errorf("floats not trimmed:\n%s", out)
	}
	if !strings.Contains(out, "2") || !strings.Contains(out, "0.25") {
		t.Errorf("values missing:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("x,y", `quote"inside`)
	tbl.AddRow(1, 2)
	csv := tbl.CSV()
	want := "a,b\n\"x,y\",\"quote\"\"inside\"\n1,2\n"
	if csv != want {
		t.Errorf("csv = %q, want %q", csv, want)
	}
}

func TestIsNumeric(t *testing.T) {
	yes := []string{"5", "-3", "3.25", "33.3x", "0"}
	no := []string{"", "abc", "1.2.3", "x33", "--1", "3-3"}
	for _, s := range yes {
		if !isNumeric(s) {
			t.Errorf("%q should be numeric", s)
		}
	}
	for _, s := range no {
		if isNumeric(s) {
			t.Errorf("%q should not be numeric", s)
		}
	}
}

func TestGanttRuler(t *testing.T) {
	r := NewRecorder(1)
	for c := int64(0); c < 25; c++ {
		r.Mark(c, 0, KindExec)
	}
	g := r.Gantt()
	ruler := strings.Split(g, "\n")[0]
	if !strings.Contains(ruler, "0") || !strings.Contains(ruler, "10") || !strings.Contains(ruler, "20") {
		t.Errorf("ruler = %q", ruler)
	}
}

// TestGanttRulerAlignment pins the ruler's column math: each label sits
// exactly at its multiple-of-10 column (after the 6-character lane
// margin), including three-digit labels past cycle 100.
func TestGanttRulerAlignment(t *testing.T) {
	const margin = 6 // "P0    " prefix width
	for _, width := range []int64{35, 101, 137, 250} {
		r := NewRecorder(1)
		r.Mark(width-1, 0, KindExec)
		lines := strings.Split(r.Gantt(), "\n")
		ruler, lane := lines[0], lines[1]
		if len(lane) != margin+int(width) {
			t.Fatalf("width %d: lane length = %d, want %d", width, len(lane), margin+int(width))
		}
		for c := int64(0); c < width; c += 10 {
			label := fmt.Sprintf("%d", c)
			at := margin + int(c)
			if at+len(label) > len(ruler) {
				// A label that would overflow the chart may be truncated;
				// the Gantt keeps whatever fits.
				continue
			}
			if got := ruler[at : at+len(label)]; got != label {
				t.Errorf("width %d: ruler at col %d = %q, want %q (ruler %q)", width, at, got, label, ruler)
			}
		}
	}
}

// TestEventsOrderingStability asserts Events() sorts by cycle then
// processor and, for equal (cycle, proc), preserves insertion order —
// the property the event log and the Chrome exporter rely on.
func TestEventsOrderingStability(t *testing.T) {
	r := NewRecorder(2)
	r.Eventf(4, 1, "first")
	r.Eventf(4, 1, "second")
	r.Eventf(4, 0, "lower proc")
	r.Eventf(1, 1, "earliest")
	r.Eventf(4, 1, "third")
	got := r.Events()
	want := []string{"earliest", "lower proc", "first", "second", "third"}
	if len(got) != len(want) {
		t.Fatalf("events = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].What != w {
			t.Errorf("events[%d] = %q, want %q (full: %+v)", i, got[i].What, w, got)
		}
	}
	// Sorting must not mutate the recorder's own event order.
	again := r.Events()
	for i := range got {
		if again[i] != got[i] {
			t.Errorf("Events() not reproducible at %d: %+v vs %+v", i, again[i], got[i])
		}
	}
}
