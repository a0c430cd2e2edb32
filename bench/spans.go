package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one traced interval. Spans of one barrier episode or service
// epoch share ID (impl/participant/episode, or group/epoch); Parent
// names the span that caused this one ("" for a root).
type span struct {
	Name   string
	ID     string
	Parent string
	Lane   int   // one timeline row (participant, or group and epoch parity)
	Start  int64 // ns, or SimNet ticks (written as 1 tick = 1 ms)
	End    int64
}

// maxSpans caps a span file: a traced rt-spin pass runs ~10^6 episodes,
// and a timeline is read from its first few thousand.
const maxSpans = 40000

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	spans    []span
	tickNs   int64 // ns per clock unit: 1 for real time, 1e6 for SimNet ticks
	laneName func(lane int) string
}

func (l *spanLog) full() bool { return len(l.spans) >= maxSpans }

func (l *spanLog) add(s span) {
	if !l.full() {
		l.spans = append(l.spans, s)
	}
}

// chromeEvent is one entry of the Chrome trace-event JSON array, the
// format ui.perfetto.dev and chrome://tracing load. Timestamps are µs.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// write stores the spans as dir/trace-<workload>.json; with no dir
// (spans were not asked for) it does nothing.
func (l *spanLog) write(dir, workload string) (err error) {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			w.WriteString(",")
		}
		first = false
		return enc.Encode(ev)
	}
	named := map[int]bool{}
	for _, s := range l.spans {
		if !named[s.Lane] && l.laneName != nil {
			named[s.Lane] = true
			if err := emit(chromeEvent{Name: "thread_name", Phase: "M", TID: s.Lane,
				Args: map[string]any{"name": l.laneName(s.Lane)}}); err != nil {
				return err
			}
		}
		args := map[string]any{"id": s.ID}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		if err := emit(chromeEvent{
			Name: s.Name, Phase: "X", TID: s.Lane, Args: args,
			TS:  float64(s.Start*l.tickNs) / 1e3,
			Dur: float64((s.End-s.Start)*l.tickNs) / 1e3,
		}); err != nil {
			return err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
