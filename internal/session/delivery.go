package session

import (
	"time"

	"gasf/internal/tuple"
)

// Delivery is one transmission as a subscriber receives it, on either
// transport: the tuple, the destination label list pruned to the members
// live at release time (the receiving one among them), the receive instant
// and the durable log offset.
type Delivery struct {
	Tuple *tuple.Tuple
	// Destinations is read-only and may be shared: on the embedded
	// transport it aliases the engine's canonical destination list when
	// every addressee was live at release, and otherwise one pruned slice
	// per membership and destination pattern; on the networked one a
	// receive rewrites the caller's slice with the session's interned
	// label strings.
	Destinations []string
	// ReceivedAt is the instant the delivery reached the consumer's side
	// of the transport, stamped once per batch rather than per delivery:
	// on the networked transport the socket read that completed its frame
	// (a burst taken by one read shares one stamp), on the embedded one
	// the sink call that queued it. A replayed delivery carries the
	// instant its resume was fenced. Stamps lie between the tuple's
	// publish call and the return of the receive that hands it over, and
	// never go backwards within a subscription.
	ReceivedAt time.Time
	// Offset is the delivery's position in the source's durable log (0
	// without one, and 0 for the log's first record); the networked
	// transport carries it in every transmission frame. A consumer that
	// checkpointed offset o resumes from o+1.
	Offset uint64
}
