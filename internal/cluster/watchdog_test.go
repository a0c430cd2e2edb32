package cluster

import (
	"strings"
	"testing"
)

// These are white-box regression tests for the watchdog's three
// diagnoses. Real protocols cannot reach the failure paths (reliable
// delivery always leaves a retransmission timer pending, and the
// protocols provably release — see internal/check), so the tests inject
// broken protocol machines through newProtoHook.

// muteProto never sends and never releases: once every node's region
// events retire, the event queue drains with nodes unfinished.
type muteProto struct{}

func (muteProto) Arrive(int64)                  {}
func (muteProto) Handle(Message)                {}
func (muteProto) PendingLine() string           { return "mute (never sends)" }
func (m muteProto) CloneFor(ProtoEnv) Proto     { return m }
func (muteProto) AppendState(buf []byte) []byte { return buf }

// chatterProto sends forever and never releases: node 0 starts a
// message ping-pong with node 1 that keeps the event queue busy while
// no epoch ever completes — the no-progress window diagnosis.
type chatterProto struct{ env ProtoEnv }

func (c *chatterProto) Arrive(e int64) {
	if c.env.NodeID() == 0 && c.env.Nodes() > 1 {
		c.env.Send(Message{Kind: MsgRound, To: 1, Epoch: int32(e)})
	}
}

func (c *chatterProto) Handle(m Message) {
	if m.Kind != MsgRound {
		return
	}
	peer := int32(0)
	if c.env.NodeID() == 0 {
		peer = 1
	}
	c.env.Send(Message{Kind: MsgRound, To: peer, Epoch: m.Epoch})
}

func (c *chatterProto) PendingLine() string { return "chatter (never releases)" }
func (c *chatterProto) CloneFor(env ProtoEnv) Proto {
	return &chatterProto{env: env}
}
func (c *chatterProto) AppendState(buf []byte) []byte { return buf }

// runWithProto runs a small simulation with the hooked protocol and
// returns the run's result and error.
func runWithProto(t *testing.T, hook func(string, ProtoEnv) Proto, cfg Config) (*Result, error) {
	t.Helper()
	newProtoHook = hook
	defer func() { newProtoHook = nil }()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run()
}

func watchdogConfig(shards int) Config {
	return Config{
		Protocol: "central", Nodes: 3, Epochs: 2,
		Work: 5, Region: 2, Seed: 7,
		Shards: shards,
	}
}

// TestWatchdogDrainedQueue: a protocol that stops sending must be
// diagnosed — not silently terminate — serial and sharded, with the
// drained-queue cause in the report.
func TestWatchdogDrainedQueue(t *testing.T) {
	for _, shards := range []int{1, 2} {
		res, err := runWithProto(t, func(string, ProtoEnv) Proto { return muteProto{} }, watchdogConfig(shards))
		if err == nil {
			t.Fatalf("shards=%d: mute protocol completed without a watchdog error", shards)
		}
		if res == nil || res.Stuck == nil {
			t.Fatalf("shards=%d: no StuckReport on the result", shards)
		}
		rep := res.Stuck
		if rep.Why != "event queue drained" {
			t.Errorf("shards=%d: Why = %q, want %q", shards, rep.Why, "event queue drained")
		}
		if rep.Node < 0 || rep.Node >= 3 {
			t.Errorf("shards=%d: laggiest node = %d, want a real node", shards, rep.Node)
		}
		if len(rep.States) != 3 {
			t.Errorf("shards=%d: %d state lines, want 3", shards, len(rep.States))
		}
		if !strings.Contains(rep.String(), "event queue drained") {
			t.Errorf("shards=%d: rendered report omits the cause:\n%s", shards, rep)
		}
		if !strings.Contains(err.Error(), "event queue drained") {
			t.Errorf("shards=%d: error omits the cause: %v", shards, err)
		}
	}
}

// TestWatchdogNoProgress: a protocol that keeps the network busy but
// never completes an epoch trips the no-progress window, serial and
// sharded.
func TestWatchdogNoProgress(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := watchdogConfig(shards)
		cfg.WatchdogAfter = 500 // keep the test fast
		res, err := runWithProto(t, func(_ string, env ProtoEnv) Proto { return &chatterProto{env: env} }, cfg)
		if err == nil {
			t.Fatalf("shards=%d: chatter protocol completed without a watchdog error", shards)
		}
		if res.Stuck == nil || res.Stuck.Why != "no epoch completed within watchdog window" {
			t.Fatalf("shards=%d: Stuck = %+v, want the no-progress diagnosis", shards, res.Stuck)
		}
	}
}

// TestWatchdogTickBudget: the hard MaxTicks stop carries its own cause.
func TestWatchdogTickBudget(t *testing.T) {
	cfg := watchdogConfig(1)
	cfg.WatchdogAfter = 1 << 40 // out of the way
	cfg.MaxTicks = 300
	res, err := runWithProto(t, func(_ string, env ProtoEnv) Proto { return &chatterProto{env: env} }, cfg)
	if err == nil {
		t.Fatal("chatter protocol completed without a watchdog error")
	}
	if res.Stuck == nil || res.Stuck.Why != "tick budget exhausted" {
		t.Fatalf("Stuck = %+v, want the tick-budget diagnosis", res.Stuck)
	}
}
