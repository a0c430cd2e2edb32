package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// Transcript pins: FNV-1a-64 hashes of what the event engine replays,
// recorded while the closure (container/heap) engine and the typed-event
// engine both existed and agreed on every one of them. They are the
// frozen output of the closure engine — the oracle any later change to
// the queue (wheel, arena, key layout, timer scheme) is held to. A pin
// that moves means the schedule moved: explain the diff, never re-record
// to make the test pass.
//
// Each cell of transcriptPins is TestEngineEquivalence's configuration
// on one (protocol, net) pair, seeds 1–8 chained through one hash, each
// seed contributing its full event log, a newline, Result.String() and a
// newline. transcriptChainPin chains all 72 runs in matrix order.
var transcriptPins = map[string]uint64{
	"central/clean":        0xb1dd22ab44a85507,
	"central/jitter":       0x7471acbe761043f0,
	"central/lossy":        0x0d33b4d4685689d9,
	"tree/clean":           0xb6eda91a91373419,
	"tree/jitter":          0x8ddb243b47fcf493,
	"tree/lossy":           0x604f15af7c6bbc1a,
	"dissemination/clean":  0x5d2c351083b8a9db,
	"dissemination/jitter": 0xbbf67f81e538039b,
	"dissemination/lossy":  0xee4071ae8371c9e9,
}

const transcriptChainPin = 0xaafd09988010ccb1

// gateResultsPin hashes Result.String() plus a newline of the six
// gateConfigs() runs in order, without event logs. These are the long
// runs the 6-node cells are not: 256 and 1024 lossy nodes, 35–65 k
// ticks (the wheel wraps many times), up to ~494 k deliveries and
// ~100 k retransmit timers each.
const gateResultsPin = 0x7f4639c78271e26b

// TestTranscriptPins holds the engine to the pins above.
func TestTranscriptPins(t *testing.T) {
	chain := fnv.New64a()
	cells := 0
	for _, proto := range Protocols() {
		for _, nc := range equivalenceNets() {
			cell := fnv.New64a()
			for seed := uint64(1); seed <= 8; seed++ {
				log, res := collectLog(t, Config{
					Protocol: proto, Nodes: 6, Epochs: 15,
					Work: 150, WorkJitter: 60, Region: 30,
					Straggler: 3, StraggleExtra: 45,
					Net:       nc.net,
					Seed:      seed,
					LogEvents: true,
				})
				fmt.Fprintf(cell, "%s\n%s\n", log, res)
				fmt.Fprintf(chain, "%s\n%s\n", log, res)
			}
			name := proto + "/" + nc.name
			want, ok := transcriptPins[name]
			if !ok {
				t.Fatalf("%s: no pin for this cell", name)
			}
			if got := cell.Sum64(); got != want {
				t.Errorf("%s: transcript hash %016x, pinned %016x", name, got, want)
			}
			cells++
		}
	}
	if cells != len(transcriptPins) {
		t.Errorf("matrix has %d cells, %d pinned", cells, len(transcriptPins))
	}
	if got := chain.Sum64(); got != transcriptChainPin {
		t.Errorf("chained transcript hash %016x, pinned %016x", got, uint64(transcriptChainPin))
	}

	gate := fnv.New64a()
	for _, cfg := range gateConfigs() {
		_, res := collectLog(t, cfg)
		fmt.Fprintf(gate, "%s\n", res)
	}
	if got := gate.Sum64(); got != gateResultsPin {
		t.Errorf("gateConfigs results hash %016x, pinned %016x", got, uint64(gateResultsPin))
	}
}
