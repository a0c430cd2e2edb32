package cluster

import "fmt"

// MsgKind is the protocol message type.
type MsgKind uint8

// Protocol message kinds.
const (
	MsgArrive  MsgKind = iota // participant -> coordinator/parent: I (and my subtree) arrived at Epoch
	MsgRelease                // coordinator/parent -> down: Epoch is complete
	MsgRound                  // dissemination round message (Round field)
	MsgAck                    // receiver -> sender: stop retransmitting Seq
)

// String returns the kind's wire name.
func (k MsgKind) String() string {
	switch k {
	case MsgArrive:
		return "arrive"
	case MsgRelease:
		return "release"
	case MsgRound:
		return "round"
	case MsgAck:
		return "ack"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Message is one protocol datagram. Epoch tags every payload so stale
// and early deliveries are classifiable; Seq is unique per sender and
// stable across retransmissions and network duplicates, so an Ack names
// exactly one logical send and duplicate deliveries are detectable.
//
// The fields are as narrow as their bounds allow, widest first, so a
// Message is 24 bytes: withDefaults caps Epochs at MaxInt32, and
// maxNodes caps From and To below MaxInt32 and Round below 23. Every
// queued delivery and every pending retransmit record carries one.
type Message struct {
	Seq   uint64 // per-sender sequence number; for MsgAck, the seq being acked
	Epoch int32
	From  int32
	To    int32
	Kind  MsgKind
	Round uint8 // dissemination round (MsgRound only)
}

// String renders the message for event logs.
func (m Message) String() string {
	if m.Kind == MsgRound {
		return fmt.Sprintf("%s e=%d r=%d %d->%d seq=%d", m.Kind, m.Epoch, m.Round, m.From, m.To, m.Seq)
	}
	return fmt.Sprintf("%s e=%d %d->%d seq=%d", m.Kind, m.Epoch, m.From, m.To, m.Seq)
}
