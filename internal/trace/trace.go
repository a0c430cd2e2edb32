// Package trace records execution events from the multiprocessor simulator
// and renders them for humans: per-cycle Gantt charts, event logs, and the
// fixed-width tables used by the experiment harness.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies what a processor was doing during one cycle.
type Kind byte

// Cycle activity kinds. The byte values double as the glyphs used by the
// Gantt renderer.
const (
	KindIdle       Kind = '.' // before start / after halt
	KindExec       Kind = '=' // executing a non-barrier instruction
	KindBarrier    Kind = 'b' // executing a barrier-region instruction
	KindStall      Kind = 'S' // stalled at the end of a barrier region
	KindMemory     Kind = 'm' // waiting on a memory access
	KindHotSpot    Kind = 'H' // waiting in a hot-spot queue
	KindSync       Kind = '*' // the cycle on which synchronization fired
	KindHalted     Kind = ' ' // halted
	KindWork       Kind = 'w' // synthetic WORK busy cycles
	KindSpin       Kind = 's' // spinning in a software barrier
	KindOverheadOp Kind = 'o' // executing software-barrier overhead instructions
	KindInterrupt  Kind = 'I' // preempted by an injected interrupt/trap
)

// Kinds lists every activity kind in a stable rendering order, used by
// the per-kind aggregations (LaneCounts, Phases) and the Chrome exporter.
var Kinds = []Kind{
	KindIdle, KindExec, KindBarrier, KindStall, KindMemory, KindHotSpot,
	KindSync, KindHalted, KindWork, KindSpin, KindOverheadOp, KindInterrupt,
}

// numKinds is len(Kinds); per-kind count vectors are indexed by
// Kind.Index in [0, numKinds).
const numKinds = 12

// Index returns the kind's position in Kinds, or -1 for an unknown glyph.
func (k Kind) Index() int {
	for i, kk := range Kinds {
		if kk == k {
			return i
		}
	}
	return -1
}

// String returns a short human-readable name for the kind ("exec",
// "stall", ...). The Gantt chart renders the raw glyph bytes instead.
func (k Kind) String() string {
	switch k {
	case KindIdle:
		return "idle"
	case KindExec:
		return "exec"
	case KindBarrier:
		return "barrier"
	case KindStall:
		return "stall"
	case KindMemory:
		return "memory"
	case KindHotSpot:
		return "hot-spot"
	case KindSync:
		return "sync"
	case KindHalted:
		return "halted"
	case KindWork:
		return "work"
	case KindSpin:
		return "spin"
	case KindOverheadOp:
		return "overhead-op"
	case KindInterrupt:
		return "interrupt"
	}
	return fmt.Sprintf("Kind(%q)", byte(k))
}

// EventKind classifies discrete events (as opposed to the per-cycle lane
// Kinds). The zero value EvGeneric covers everything the shared-memory
// simulator records; the network kinds are emitted by internal/cluster's
// message-passing barriers so protocol traffic can be filtered on a
// Chrome/Perfetto timeline or grepped out of an event log.
type EventKind byte

// Discrete event kinds.
const (
	EvGeneric    EventKind = iota // default: sync fired, fault, halt, ...
	EvSend                        // a message was handed to the network
	EvRecv                        // a message was delivered
	EvRetransmit                  // a retransmission timer fired
	EvDrop                        // the network dropped a transmission
	EvTimeout                     // a watchdog/timeout diagnosis
)

// String returns the kind's Chrome trace category name.
func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "net.send"
	case EvRecv:
		return "net.recv"
	case EvRetransmit:
		return "net.retransmit"
	case EvDrop:
		return "net.drop"
	case EvTimeout:
		return "watchdog"
	}
	return "event"
}

// Event is a single recorded occurrence in a simulation.
type Event struct {
	Cycle int64
	Proc  int
	Kind  EventKind
	What  string
}

// Recorder accumulates per-cycle activity and discrete events.
// The zero value records events but no Gantt lanes; use NewRecorder to get
// lanes for a fixed processor count.
type Recorder struct {
	lanes    [][]Kind
	events   []Event
	maxCycle int64
}

// NewRecorder returns a Recorder with one Gantt lane per processor.
func NewRecorder(procs int) *Recorder {
	return &Recorder{lanes: make([][]Kind, procs)}
}

// Enabled reports whether recording is active. A nil Recorder is
// permitted everywhere and reports false, so the simulator can be run
// without tracing overhead; any non-nil Recorder (including the zero
// value, which has no lanes) records.
func (r *Recorder) Enabled() bool { return r != nil }

// Mark records what processor p did during the given cycle. Marks for
// processors without a lane (in particular, every Mark on a zero-value
// Recorder) are dropped; events are still recorded.
func (r *Recorder) Mark(cycle int64, p int, k Kind) {
	if r == nil || p < 0 || p >= len(r.lanes) {
		return
	}
	lane := r.lanes[p]
	for int64(len(lane)) <= cycle {
		lane = append(lane, KindIdle)
	}
	lane[cycle] = k
	r.lanes[p] = lane
	if cycle > r.maxCycle {
		r.maxCycle = cycle
	}
}

// MarkN records n consecutive cycles [cycle, cycle+n) of the same
// activity for processor p — the bulk form of Mark used by the
// simulator's fast-forward path. It is byte-for-byte equivalent to
// calling Mark n times with increasing cycle numbers.
func (r *Recorder) MarkN(cycle int64, n int64, p int, k Kind) {
	if r == nil || n <= 0 || p < 0 || p >= len(r.lanes) {
		return
	}
	last := cycle + n - 1
	lane := r.lanes[p]
	if need := last + 1; int64(len(lane)) < need {
		if int64(cap(lane)) < need {
			grown := make([]Kind, len(lane), need)
			copy(grown, lane)
			lane = grown
		}
		for int64(len(lane)) < need {
			lane = append(lane, KindIdle)
		}
	}
	for c := cycle; c <= last; c++ {
		lane[c] = k
	}
	r.lanes[p] = lane
	if last > r.maxCycle {
		r.maxCycle = last
	}
}

// Eventf records a discrete, printf-formatted event of kind EvGeneric.
func (r *Recorder) Eventf(cycle int64, p int, format string, args ...any) {
	r.EventKindf(cycle, p, EvGeneric, format, args...)
}

// EventKindf records a discrete event tagged with an EventKind; the
// Chrome exporter uses the kind as the event's category so network
// traffic (send/recv/retransmit/drop) can be filtered on the timeline.
func (r *Recorder) EventKindf(cycle int64, p int, kind EventKind, format string, args ...any) {
	if r == nil {
		return
	}
	r.EventKind(cycle, p, kind, fmt.Sprintf(format, args...))
}

// EventKind records a pre-rendered discrete event tagged with an
// EventKind. Callers that already hold the final text use this to avoid
// a second trip through fmt (see cluster.Sim.logf, which feeds the same
// string to its event log and the recorder).
func (r *Recorder) EventKind(cycle int64, p int, kind EventKind, what string) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{Cycle: cycle, Proc: p, Kind: kind, What: what})
}

// MaxCycle returns the highest cycle marked so far (0 when nothing has
// been marked); the rendered chart spans cycles [0, MaxCycle()].
func (r *Recorder) MaxCycle() int64 {
	if r == nil {
		return 0
	}
	return r.maxCycle
}

// Procs returns the number of Gantt lanes.
func (r *Recorder) Procs() int {
	if r == nil {
		return 0
	}
	return len(r.lanes)
}

// Events returns the recorded events ordered by cycle, then processor.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := append([]Event(nil), r.events...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// Gantt renders the recorded lanes as a text chart, one row per processor.
// Legend: '=' non-barrier execution, 'b' barrier region, 'S' stalled,
// '*' sync fired, 'm' memory wait, 'H' hot-spot queue, 'w' synthetic work,
// 's' software spin, 'o' software-barrier overhead, 'I' interrupted,
// '.' idle.
func (r *Recorder) Gantt() string {
	if r == nil || len(r.lanes) == 0 {
		return ""
	}
	var b strings.Builder
	width := r.maxCycle + 1
	// Cycle ruler every 10 cycles.
	b.WriteString("      ")
	for c := int64(0); c < width; c++ {
		if c%10 == 0 {
			s := fmt.Sprintf("%d", c)
			b.WriteString(s)
			c += int64(len(s)) - 1
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteByte('\n')
	for p, lane := range r.lanes {
		fmt.Fprintf(&b, "P%-4d ", p)
		for c := int64(0); c < width; c++ {
			if c < int64(len(lane)) {
				b.WriteByte(byte(lane[c]))
			} else {
				b.WriteByte(byte(KindIdle))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LaneCounts returns, for processor p, how many cycles were spent in each
// activity kind. It returns nil if p has no lane. Lanes shorter than the
// chart width are padded with KindIdle, exactly as Gantt renders them, so
// the counts of every lane sum to MaxCycle()+1.
func (r *Recorder) LaneCounts(p int) map[Kind]int64 {
	if r == nil || p < 0 || p >= len(r.lanes) {
		return nil
	}
	m := make(map[Kind]int64)
	lane := r.lanes[p]
	for _, k := range lane {
		m[k]++
	}
	if pad := r.maxCycle + 1 - int64(len(lane)); pad > 0 {
		m[KindIdle] += pad
	}
	return m
}
