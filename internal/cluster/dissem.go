package cluster

import "fmt"

// dissProto: the dissemination barrier as a message protocol. In round
// r (r = 0 .. ceil(log2 n)-1) node i sends ROUND(e, r) to node
// (i + 2^r) mod n and waits for the symmetric message from
// (i - 2^r) mod n; it may enter round r+1 only after completing round
// r. After the last round every node has transitively heard from all n
// participants, so it releases locally — no coordinator, no release
// wave, and the critical path is log2 n message latencies.
//
// Because completion is local, a fast node can finish epoch e and send
// ROUND(e+1, 0) while a peer is still collecting rounds for e; the
// receiver buffers those early messages until its own Arrive(e+1)
// starts consuming them. The sender's progress proves the receiver
// arrived at e, so at most the two consecutive epochs
// {releasedThrough, releasedThrough+1} are ever live — consecutive
// epochs have opposite parity, so the buffers are two parity-indexed
// round bitmasks with epoch stamps (no per-epoch maps, no allocation
// on the receive path).
type dissProto struct {
	env    ProtoEnv
	rounds int
	// gotEpoch[e&1] stamps which epoch that parity slot buffers (-1 =
	// empty); gotMask[e&1] has bit r set when ROUND(e, r) was received.
	gotEpoch [2]int64
	gotMask  [2]uint64
	// curEpoch/curRound: the epoch the node itself is executing (-1
	// between epochs) and the round it is currently in.
	curEpoch int64
	curRound int
}

func (d *dissProto) init(env ProtoEnv) {
	rounds := 0
	for span := 1; span < env.Nodes(); span *= 2 {
		rounds++
	}
	*d = dissProto{env: env, rounds: rounds, curEpoch: -1}
	d.gotEpoch[0], d.gotEpoch[1] = -1, -1
}

func (d *dissProto) Arrive(e int64) {
	d.curEpoch = e
	d.curRound = 0
	if d.rounds > 0 {
		d.sendRound(e, 0)
	}
	d.advance(e)
}

func (d *dissProto) sendRound(e int64, r int) {
	peer := (d.env.NodeID() + (1 << r)) % d.env.Nodes()
	d.env.Send(Message{Kind: MsgRound, To: int32(peer), Epoch: int32(e), Round: uint8(r)})
}

// advance consumes buffered round receipts: each completed round enters
// (and sends) the next; completing the last round releases the epoch.
func (d *dissProto) advance(e int64) {
	if e != d.curEpoch {
		return // early message for an epoch we haven't reached
	}
	slot := e & 1
	r := d.curRound
	for r < d.rounds && d.gotEpoch[slot] == e && d.gotMask[slot]&(1<<uint(r)) != 0 {
		r++
		d.curRound = r
		if r < d.rounds {
			d.sendRound(e, r)
		}
	}
	if r >= d.rounds {
		d.gotEpoch[slot] = -1
		d.gotMask[slot] = 0
		d.curEpoch = -1
		d.env.Release(e)
	}
}

func (d *dissProto) Handle(m Message) {
	if m.Kind != MsgRound {
		return
	}
	e := int64(m.Epoch)
	if e < d.env.ReleasedThrough() {
		return // stale retransmission of an already-completed epoch
	}
	slot := e & 1
	if d.gotEpoch[slot] != e {
		// The slot held nothing or an already-released epoch of the
		// same parity (two epochs older); claim it for e.
		d.gotEpoch[slot] = e
		d.gotMask[slot] = 0
	}
	bit := uint64(1) << uint(m.Round)
	if d.gotMask[slot]&bit != 0 {
		return // duplicate
	}
	d.gotMask[slot] |= bit
	d.advance(e)
}

func (d *dissProto) PendingLine() string {
	out := fmt.Sprintf("dissemination(rounds=%d)", d.rounds)
	if d.curEpoch >= 0 {
		out += fmt.Sprintf(" e=%d:round %d/%d", d.curEpoch, d.curRound, d.rounds)
	}
	return out
}

func (d *dissProto) CloneFor(env ProtoEnv) Proto {
	cp := *d
	cp.env = env
	return &cp
}

func (d *dissProto) AppendState(buf []byte) []byte {
	buf = appendState64(buf, d.gotEpoch[0])
	buf = appendState64(buf, d.gotEpoch[1])
	buf = appendState64(buf, int64(d.gotMask[0]))
	buf = appendState64(buf, int64(d.gotMask[1]))
	buf = appendState64(buf, d.curEpoch)
	buf = appendState64(buf, int64(d.curRound))
	return buf
}
