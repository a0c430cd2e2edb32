package transport

import (
	"encoding/binary"
	"fmt"
)

// Kind is the barrierd wire-message type.
type Kind uint8

// Wire message kinds. The epoch-coordination protocol (internal/barrierd)
// gives them meaning; the transport layer interprets only KindAck.
const (
	// KindAck acknowledges reliable messages: List carries the acked
	// sequence numbers (acks are batched/coalesced per connection).
	KindAck Kind = iota
	// KindJoin registers List[0] members in Group with phaser mode Mode
	// (connection -> ingress shard -> home shard). Client is the batch's
	// token: the joining connection's address over a batch number.
	KindJoin
	// KindJoinOK confirms the join batch whose token and mode Client and
	// Mode repeat: Epoch is the first epoch its members owe/observe, and
	// every epoch before it is complete (home shard -> ingress shard ->
	// connection).
	KindJoinOK
	// KindLeave deregisters List[0] signaling and List[1] wait-only
	// members from Group and takes back the signals they had banked:
	// List[2+i] of them for epoch Epoch-i.
	KindLeave
	// KindArrive reports one connection's new signals: List[i] of them
	// for epoch Epoch-i of Group (connection -> ingress shard). Members'
	// ids stay with the connection; only counts travel.
	KindArrive
	// KindCombine sums arrivals up the shard tree toward the group's
	// home shard: List[i] signals for epoch Epoch-i of Group.
	KindCombine
	// KindRelease publishes completion: every epoch <= Epoch of Group is
	// complete (home shard -> shard tree -> connections).
	KindRelease
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindAck:
		return "ack"
	case KindJoin:
		return "join"
	case KindJoinOK:
		return "join-ok"
	case KindLeave:
		return "leave"
	case KindArrive:
		return "arrive"
	case KindCombine:
		return "combine"
	case KindRelease:
		return "release"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is one barrierd datagram. Epoch tags every payload so stale
// and early deliveries are classifiable; Seq is unique per sender and
// stable across retransmissions and network duplicates, so an ack names
// exactly one logical send and duplicate deliveries are detectable —
// the same discipline as cluster.Message, with a batch payload (List)
// so many virtual clients multiplex over one connection.
type Message struct {
	Kind   Kind
	Mode   uint8 // phaser mode for KindJoin/KindJoinOK (core.PhaserMode)
	From   Addr  // filled by the sender's endpoint/reliability layer
	To     Addr
	Group  uint32
	Client uint64 // join token (join/join-ok)
	Epoch  int64
	Seq    uint64   // reliable-layer sequence number (0 = unreliable)
	List   []uint64 // acked seqs (KindAck) or counts (join/leave/arrive/combine)
}

// String renders the message for event logs.
func (m Message) String() string {
	s := fmt.Sprintf("%s g=%d e=%d %d->%d seq=%d", m.Kind, m.Group, m.Epoch, m.From, m.To, m.Seq)
	if m.Kind == KindJoin || m.Kind == KindJoinOK || m.Kind == KindLeave {
		s += fmt.Sprintf(" c=%d m=%d", m.Client, m.Mode)
	}
	if len(m.List) > 0 {
		s += fmt.Sprintf(" n=%d", len(m.List))
	}
	return s
}

// AppendTo appends the canonical wire encoding of m to buf and returns
// the extended slice. The format is a 2-byte header (kind, mode)
// followed by varints: from, to, group, client, epoch (zigzag), seq,
// list length, list items. Encode/Decode round-trip exactly
// (FuzzMessageCodec pins this).
func (m Message) AppendTo(buf []byte) []byte {
	buf = append(buf, byte(m.Kind), m.Mode)
	buf = binary.AppendUvarint(buf, uint64(m.From))
	buf = binary.AppendUvarint(buf, uint64(m.To))
	buf = binary.AppendUvarint(buf, uint64(m.Group))
	buf = binary.AppendUvarint(buf, m.Client)
	buf = binary.AppendVarint(buf, m.Epoch)
	buf = binary.AppendUvarint(buf, m.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(m.List)))
	for _, v := range m.List {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// Encode returns the wire encoding of m.
func (m Message) Encode() []byte { return m.AppendTo(nil) }

// Decode parses one wire message. Arbitrary input never panics: every
// read is bounds-checked, addresses are range-checked against Addr's
// width, and the list length is validated against the bytes actually
// remaining (each item takes at least one byte) before allocating.
func Decode(buf []byte) (Message, error) {
	var m Message
	if len(buf) < 2 {
		return m, fmt.Errorf("transport: short message (%d bytes)", len(buf))
	}
	m.Kind, m.Mode = Kind(buf[0]), buf[1]
	if m.Kind > KindRelease {
		return m, fmt.Errorf("transport: unknown message kind %d", buf[0])
	}
	p := buf[2:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("transport: truncated varint")
		}
		p = p[n:]
		return v, nil
	}
	from, err := next()
	if err != nil {
		return m, err
	}
	to, err := next()
	if err != nil {
		return m, err
	}
	if from > uint64(^Addr(0)) || to > uint64(^Addr(0)) {
		return m, fmt.Errorf("transport: address out of range (%d -> %d)", from, to)
	}
	m.From, m.To = Addr(from), Addr(to)
	g, err := next()
	if err != nil {
		return m, err
	}
	if g > 0xFFFFFFFF {
		return m, fmt.Errorf("transport: group id %d out of range", g)
	}
	m.Group = uint32(g)
	if m.Client, err = next(); err != nil {
		return m, err
	}
	e, n := binary.Varint(p)
	if n <= 0 {
		return m, fmt.Errorf("transport: truncated epoch")
	}
	p = p[n:]
	m.Epoch = e
	if m.Seq, err = next(); err != nil {
		return m, err
	}
	ln, err := next()
	if err != nil {
		return m, err
	}
	if ln > uint64(len(p)) {
		return m, fmt.Errorf("transport: list length %d exceeds %d remaining bytes", ln, len(p))
	}
	if ln > 0 {
		m.List = make([]uint64, ln)
		for i := range m.List {
			if m.List[i], err = next(); err != nil {
				return m, err
			}
		}
	}
	if len(p) != 0 {
		return m, fmt.Errorf("transport: %d trailing bytes", len(p))
	}
	return m, nil
}
