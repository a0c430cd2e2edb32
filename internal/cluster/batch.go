package cluster

import "fuzzybarrier/internal/sweep"

// RunBatch replays cfg once per seed (cfg.Seed is overwritten) and
// returns per-seed Results and errors, indexed like seeds: seed-level
// parallelism, the second parallel axis next to Config.Shards (which
// parallelizes a single run). Every seed is one ordinary New(cfg).Run()
// on the sweep worker pool, up to workers at a time (workers <= 0
// selects GOMAXPROCS), so results are identical at any worker count and
// one seed's stuck run or rejected configuration never aborts the
// others. progress, when non-nil, is called after each seed completes
// with the completed and total counts (serialized; never concurrently).
//
// A cfg.Recorder is shared by every seed and is not safe for concurrent
// use, so a non-nil Recorder clamps workers to 1.
func RunBatch(cfg Config, seeds []uint64, workers int, progress func(done, total int)) ([]*Result, []error) {
	if cfg.Recorder != nil {
		workers = 1
	}
	// The seed's error rides in the cell value: a cell that returned it
	// to sweep would stop the serial path at the first failing seed.
	type run struct {
		res *Result
		err error
	}
	runs, _ := sweep.RunProgress(workers, len(seeds), progress, func(i int) (run, error) {
		c := cfg
		c.Seed = seeds[i]
		s, err := New(c)
		if err != nil {
			return run{err: err}, nil
		}
		res, err := s.Run()
		return run{res, err}, nil
	})
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	for i, r := range runs {
		results[i], errs[i] = r.res, r.err
	}
	return results, errs
}
