package core

import (
	"fmt"
	"strings"
	"testing"
)

// drive is a tiny helper: step the network once.
func drive(n *Network) { n.StepCollect(nil) }

func TestUnitInitialState(t *testing.T) {
	u := NewUnit(3)
	if u.State() != StateNonBarrier {
		t.Errorf("state = %v, want non-barrier", u.State())
	}
	if u.Ready() {
		t.Error("fresh unit should not be ready")
	}
	if u.Tag() != TagNone {
		t.Errorf("tag = %d, want TagNone", u.Tag())
	}
}

func TestUnitNonParticipantNeverStalls(t *testing.T) {
	u := NewUnit(0)
	u.SetBarrier(TagNone, 0)
	u.EnterBarrier()
	if u.State() != StateNonBarrier {
		t.Errorf("tag-0 unit entered barrier state %v", u.State())
	}
	if !u.TryCross() {
		t.Error("tag-0 unit must cross freely")
	}
}

// unitStep is one step of a two-unit script: do is "enter a" (EnterBarrier),
// "cross a" (TryCross, whose result is checked) or "drive" (one network
// step); want is the rendered state after it.
type unitStep struct{ do, want string }

// runUnitScript runs a script over two units a and b that synchronize with
// each other on tag 1. After every step it checks both states, both ready
// lines and both sync counts.
func runUnitScript(t *testing.T, script []unitStep) {
	t.Helper()
	n := NewNetwork(2)
	a, b := n.Unit(0), n.Unit(1)
	a.SetBarrier(1, MaskOf(1))
	b.SetBarrier(1, MaskOf(0))
	units := map[string]*Unit{"a": a, "b": b}
	for i, s := range script {
		var got string
		switch act, who, _ := strings.Cut(s.do, " "); act {
		case "enter":
			units[who].EnterBarrier()
		case "cross":
			got = fmt.Sprintf("crossed=%v ", units[who].TryCross())
		case "drive":
			drive(n)
		}
		got += fmt.Sprintf("a=%v b=%v ready=%v/%v syncs=%d/%d",
			a.State(), b.State(), a.Ready(), b.Ready(), a.Syncs(), b.Syncs())
		if got != s.want {
			t.Fatalf("step %d (%s):\n got %s\nwant %s", i, s.do, got, s.want)
		}
	}
}

// TestTwoUnitSyncHandshake: a stalls at the end of its region until b
// becomes ready.
func TestTwoUnitSyncHandshake(t *testing.T) {
	runUnitScript(t, []unitStep{
		{"enter a", "a=in-barrier b=non-barrier ready=true/false syncs=0/0"},
		{"drive", "a=in-barrier b=non-barrier ready=true/false syncs=0/0"},
		{"cross a", "crossed=false a=stalled b=non-barrier ready=true/false syncs=0/0"},
		{"enter b", "a=stalled b=in-barrier ready=true/true syncs=0/0"},
		{"drive", "a=synced b=synced ready=false/false syncs=1/1"},
		{"cross a", "crossed=true a=non-barrier b=synced ready=false/false syncs=1/1"},
		{"cross b", "crossed=true a=non-barrier b=non-barrier ready=false/false syncs=1/1"},
	})
}

// TestSyncConsumesReadyLine is the regression behind the simulator's
// line-drop rule: ready lines drop at synchronization, so a fast unit
// re-arriving at the next barrier does not match its partner's stale line.
func TestSyncConsumesReadyLine(t *testing.T) {
	runUnitScript(t, []unitStep{
		{"enter a", "a=in-barrier b=non-barrier ready=true/false syncs=0/0"},
		{"enter b", "a=in-barrier b=in-barrier ready=true/true syncs=0/0"},
		{"drive", "a=synced b=synced ready=false/false syncs=1/1"},
		{"cross a", "crossed=true a=non-barrier b=synced ready=false/false syncs=1/1"},
		{"enter a", "a=in-barrier b=synced ready=true/false syncs=1/1"},
		{"drive", "a=in-barrier b=synced ready=true/false syncs=1/1"},
		{"cross b", "crossed=true a=in-barrier b=non-barrier ready=true/false syncs=1/1"},
		{"enter b", "a=in-barrier b=in-barrier ready=true/true syncs=1/1"},
		{"drive", "a=synced b=synced ready=false/false syncs=2/2"},
	})
}

// TestStalledUnitSyncsLater: a unit stalled for several cycles still syncs
// once its partner arrives, and then crosses.
func TestStalledUnitSyncsLater(t *testing.T) {
	runUnitScript(t, []unitStep{
		{"enter a", "a=in-barrier b=non-barrier ready=true/false syncs=0/0"},
		{"cross a", "crossed=false a=stalled b=non-barrier ready=true/false syncs=0/0"},
		{"drive", "a=stalled b=non-barrier ready=true/false syncs=0/0"},
		{"drive", "a=stalled b=non-barrier ready=true/false syncs=0/0"},
		{"drive", "a=stalled b=non-barrier ready=true/false syncs=0/0"},
		{"enter b", "a=stalled b=in-barrier ready=true/true syncs=0/0"},
		{"drive", "a=synced b=synced ready=false/false syncs=1/1"},
		{"cross a", "crossed=true a=non-barrier b=synced ready=false/false syncs=1/1"},
	})
}

func TestTagMismatchPreventsSync(t *testing.T) {
	n := NewNetwork(2)
	n.Unit(0).SetBarrier(1, MaskOf(1))
	n.Unit(1).SetBarrier(2, MaskOf(0))
	n.Unit(0).EnterBarrier()
	n.Unit(1).EnterBarrier()
	drive(n)
	if n.Unit(0).State() == StateSynced || n.Unit(1).State() == StateSynced {
		t.Fatal("units with different tags must not synchronize")
	}
}

func TestDisjointMaskGroups(t *testing.T) {
	n := NewNetwork(4)
	n.Unit(0).SetBarrier(1, MaskOf(1))
	n.Unit(1).SetBarrier(1, MaskOf(0))
	n.Unit(2).SetBarrier(2, MaskOf(3))
	n.Unit(3).SetBarrier(2, MaskOf(2))
	// Only group {0,1} arrives.
	n.Unit(0).EnterBarrier()
	n.Unit(1).EnterBarrier()
	drive(n)
	if n.Unit(0).State() != StateSynced || n.Unit(1).State() != StateSynced {
		t.Fatal("group {0,1} should sync independently of {2,3}")
	}
	if n.Unit(2).State() != StateNonBarrier || n.Unit(3).State() != StateNonBarrier {
		t.Fatal("group {2,3} must be untouched")
	}
}

func TestEmptyMaskSyncsImmediately(t *testing.T) {
	n := NewNetwork(2)
	n.Unit(0).SetBarrier(5, 0)
	n.Unit(0).EnterBarrier()
	drive(n)
	if n.Unit(0).State() != StateSynced {
		t.Fatalf("empty-mask unit state = %v, want synced", n.Unit(0).State())
	}
}

func TestEnterBarrierIdempotentInsideRegion(t *testing.T) {
	// The Figure 2 behaviour: re-entering while already in a barrier
	// state is a no-op — the line stays up across the invalid branch.
	n := NewNetwork(2)
	a := n.Unit(0)
	a.SetBarrier(1, MaskOf(1))
	a.EnterBarrier()
	st := a.State()
	a.EnterBarrier()
	if a.State() != st {
		t.Errorf("EnterBarrier changed state %v -> %v", st, a.State())
	}
	if !a.Ready() {
		t.Error("line must stay up")
	}
}

func TestNetworkSimultaneousDiscovery(t *testing.T) {
	// All 8 units become ready before a single Step: every unit must
	// observe the sync in that same step.
	n := NewNetwork(8)
	for i := 0; i < 8; i++ {
		n.Unit(i).SetBarrier(1, AllExcept(8, i))
		n.Unit(i).EnterBarrier()
	}
	drive(n)
	for i := 0; i < 8; i++ {
		if n.Unit(i).State() != StateSynced {
			t.Fatalf("unit %d state = %v, want synced", i, n.Unit(i).State())
		}
	}
}

func TestNetworkSizeBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size 65")
		}
	}()
	NewNetwork(65)
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateNonBarrier: "non-barrier",
		StateInBarrier:  "in-barrier",
		StateSynced:     "synced",
		StateStalled:    "stalled",
		State(9):        "State(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestMaskHelpers(t *testing.T) {
	m := MaskOf(0, 2, 5)
	if !m.Has(0) || !m.Has(2) || !m.Has(5) || m.Has(1) {
		t.Errorf("MaskOf bits wrong: %b", m)
	}
	ae := AllExcept(4, 2)
	if ae.Has(2) {
		t.Error("AllExcept includes self")
	}
	if ae != MaskOf(0, 1, 3) {
		t.Errorf("AllExcept(4,2) = %b, want %b", ae, MaskOf(0, 1, 3))
	}
}

// TestNetworkRandomScheduleProperty drives random but well-formed barrier
// usage through the network: every unit runs the same number of
// barrier episodes with randomly interleaved progress, and all units must
// finish with identical sync counts and no unit stuck.
func TestNetworkRandomScheduleProperty(t *testing.T) {
	run := func(seedBytes []byte) bool {
		if len(seedBytes) == 0 {
			return true
		}
		n := int(seedBytes[0]%6) + 2
		episodes := int(seedBytes[len(seedBytes)-1]%5) + 1
		net := NewNetwork(n)
		type pstate struct {
			episode int
			phase   int // 0 = before region, 1 = in region, 2 = trying to cross
			steps   int // region instructions left before trying to cross
		}
		ps := make([]pstate, n)
		for i := 0; i < n; i++ {
			net.Unit(i).SetBarrier(1, AllExcept(n, i))
			ps[i].steps = int(seedBytes[i%len(seedBytes)] % 4)
		}
		// Round-robin with data-dependent skips; bounded loop detects
		// livelock.
		for iter := 0; iter < 10000; iter++ {
			allDone := true
			for i := range ps {
				st := &ps[i]
				if st.episode >= episodes {
					continue
				}
				allDone = false
				// Skip this unit some iterations to create drift (the mix
				// with iter prevents constant seeds from stalling every
				// unit forever).
				if (int(seedBytes[(iter+i)%len(seedBytes)])+iter)%3 == 0 {
					continue
				}
				switch st.phase {
				case 0:
					net.Unit(i).EnterBarrier()
					st.phase = 1
				case 1:
					if st.steps > 0 {
						st.steps--
					} else {
						st.phase = 2
					}
				case 2:
					if net.Unit(i).TryCross() {
						st.episode++
						st.phase = 0
						st.steps = int(seedBytes[(iter+i)%len(seedBytes)] % 4)
					}
				}
			}
			drive(net)
			if allDone {
				break
			}
		}
		for i := 0; i < n; i++ {
			if ps[i].episode != episodes {
				return false
			}
			if net.Unit(i).Syncs() != int64(episodes) {
				return false
			}
		}
		return true
	}
	seeds := [][]byte{
		{1}, {7, 3}, {200, 13, 55, 1}, {9, 9, 9, 9, 9},
		{255, 0, 128, 64, 32, 16, 8, 4, 2, 1},
		{3, 141, 59, 26, 53, 58, 97, 93},
	}
	for i, s := range seeds {
		if !run(s) {
			t.Errorf("seed %d: units diverged or stuck", i)
		}
	}
}
