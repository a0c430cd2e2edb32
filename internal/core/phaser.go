package core

import "fmt"

// PhaserMode is a phaser member's synchronization role: the mode a client
// joins a barrierd group with (Conn.JoinBatch), which phase.Counter counts
// as a signaler or a waiter.
type PhaserMode int

const (
	// SignalWait members both gate phase advancement and wait on it —
	// ordinary barrier participants.
	SignalWait PhaserMode = iota
	// SignalOnly members (producers) gate phase advancement but never
	// wait: they may run up to phase.MaxAhead phases ahead of the group.
	SignalOnly
	// WaitOnly members (consumers) wait on phases but do not gate them:
	// a phase completes without their arrival.
	WaitOnly
)

// String returns the mode's name.
func (m PhaserMode) String() string {
	switch m {
	case SignalWait:
		return "signal-wait"
	case SignalOnly:
		return "signal-only"
	case WaitOnly:
		return "wait-only"
	default:
		return fmt.Sprintf("PhaserMode(%d)", int(m))
	}
}
