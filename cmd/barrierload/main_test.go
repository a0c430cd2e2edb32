package main

import (
	"slices"
	"testing"
	"time"
)

// TestGroupSampleExcludesOtherGroups: a group's sample is its own latest
// release minus the start, even when group 0's last release lands after
// group 1's. Waiting on the groups in sequence would charge group 1 with
// group 0's wait and report 9 ms for both.
func TestGroupSampleExcludesOtherGroups(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	rel := [][]time.Time{ // [conn][group]
		{at(3), at(2)},
		{at(9), at(4)},
		{{}, at(1)}, // carries no member of group 0
	}
	if got, want := groupSamples(start, rel), []float64{9, 4}; !slices.Equal(got, want) {
		t.Errorf("samples %v, want %v", got, want)
	}
}
