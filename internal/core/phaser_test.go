package core

import "testing"

// TestPhaserModeString covers the mode labels.
func TestPhaserModeString(t *testing.T) {
	for mode, want := range map[PhaserMode]string{
		SignalWait:     "signal-wait",
		SignalOnly:     "signal-only",
		WaitOnly:       "wait-only",
		PhaserMode(99): "PhaserMode(99)",
	} {
		if got := mode.String(); got != want {
			t.Errorf("PhaserMode(%d).String() = %q, want %q", int(mode), got, want)
		}
	}
}
