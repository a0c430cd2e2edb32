package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// side is one file's view of one (workload, metric): the median and
// quartiles over the file's runs of that workload, or, when the file
// holds a single run, over that run's trials.
type side struct {
	q1, med, q3 float64
	n           int
}

func (s side) spread() float64 { return ratio(s.q3-s.q1, s.med) }

func loadRuns(path string) (map[string][]runRecord, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(buf, &recs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	by := make(map[string][]runRecord)
	for _, r := range recs {
		by[r.Workload] = append(by[r.Workload], r)
	}
	return by, nil
}

func sideOf(runs []runRecord, metric string) (side, bool) {
	var vals []float64
	var single summary
	for _, r := range runs {
		s, ok := r.EndToEnd[metric]
		if !ok {
			s, ok = r.PerLayer[metric]
		}
		if ok {
			vals = append(vals, s.Value)
			single = s
		}
	}
	switch len(vals) {
	case 0:
		return side{}, false
	case 1:
		return side{single.Q1, single.Value, single.Q3, single.N}, true
	}
	q1, med, q3 := quartiles(vals)
	return side{q1, med, q3, len(vals)}, true
}

// compareFiles prints one row per (metric, workload) of the gated and
// family end-to-end metrics and returns the exit code: 1 on any
// regressed row or any higher fail_ratio.
func compareFiles(oldPath, newPath string) int {
	olds, err := loadRuns(oldPath)
	if err != nil {
		fatalf("%v", err)
	}
	news, err := loadRuns(newPath)
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	fmt.Printf("%-14s %-20s %38s %38s %18s  %s\n", "workload", "metric",
		"old median [q1, q3] n", "new median [q1, q3] n", "new/old (base)", "verdict")
	metrics := append(append([]e2eDef(nil), endToEnd...), familyE2E...)
	for _, w := range workloads {
		for _, d := range metrics {
			o, ok1 := sideOf(olds[w.name], d.Name)
			n, ok2 := sideOf(news[w.name], d.Name)
			if !ok1 || !ok2 {
				continue
			}
			verdict := "ok"
			if d.Name == "fail_ratio" {
				if n.med > o.med {
					verdict = "regressed"
				}
			} else if o.med == 0 {
				continue // not measured on this workload
			} else {
				worse := (n.med - o.med) / o.med
				if d.Better == "higher" {
					worse = -worse
				}
				overlap := n.q1 <= o.q3 && o.q1 <= n.q3
				switch {
				case worse > d.Bound:
					verdict = "regressed"
				case max(o.spread(), n.spread()) > d.Bound && overlap:
					verdict = "unresolved"
				}
			}
			if verdict == "regressed" {
				code = 1
			}
			cell := func(s side) string {
				return fmt.Sprintf("%.6g [%.6g, %.6g] %d", s.med, s.q1, s.q3, s.n)
			}
			fmt.Printf("%-14s %-20s %38s %38s %8.4f (%.6g)  %s\n", w.name, d.Name,
				cell(o), cell(n), ratio(n.med, o.med), o.med, verdict)
		}
	}
	return code
}
