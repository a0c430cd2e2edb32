package baseline

import (
	"fmt"

	"fuzzybarrier/internal/core"
)

// NewSplit constructs a runtime split-phase barrier by split name.
func NewSplit(name string, n int) (core.SplitBarrier, error) {
	switch name {
	case "fuzzy":
		return core.NewFuzzyBarrier(n), nil
	case "fuzzy-tree":
		return core.NewTreeBarrier(n), nil
	case "fuzzy-reduce":
		return core.NewReduceBarrier(n, core.OpSum, core.IdentitySum), nil
	case "hier":
		return core.NewHierBarrier(n), nil
	}
	return nil, fmt.Errorf("baseline: unknown split barrier %q", name)
}
