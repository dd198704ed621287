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
	// ReceivedAt is stamped when the consumer takes the delivery, one
	// clock read per receive; it is not the enqueue instant the delivery
	// latency telemetry observes.
	ReceivedAt time.Time
	// Offset is the delivery's position in the source's durable log (0
	// without one, and 0 for the log's first record); the networked
	// transport carries it in every transmission frame. A consumer that
	// checkpointed offset o resumes from o+1.
	Offset uint64
}
