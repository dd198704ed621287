// Package overlay simulates the peer-to-peer overlay infrastructure the
// prototype runs on (§4.1.1): a ring of nodes with DHT-style finger
// routing in the spirit of Pastry/Scribe, per-link delay and bandwidth
// parameters, and key-based rendezvous routing. The multicast layer builds
// Scribe-like trees on top of it (internal/experiments/multicast).
//
// The simulator is in-process and deterministic; link delays and
// capacities default to values calibrated against the paper's Emulab
// deployments (1-5 Mbps links, §4.1.2/§5.4).
//
// Node identifiers are federate.HashKey positions, the hash the
// networked deployment places sources and relay groups with; this
// package holds only what the in-process simulations (multicast,
// experiments) route with.
package overlay

import (
	"fmt"
	"sort"
	"time"

	"gasf/internal/federate"
)

// NodeID is a position on the identifier ring.
type NodeID uint32

// Link models one overlay hop.
type Link struct {
	// Delay is the one-way propagation plus forwarding delay.
	Delay time.Duration
	// Bandwidth is the link capacity in bits per second.
	Bandwidth float64
}

// DefaultLink matches the Emulab setup of §5.4: 5 Mbps, a few ms per hop.
var DefaultLink = Link{Delay: 5 * time.Millisecond, Bandwidth: 5e6}

// Network is a static overlay of nodes on an identifier ring. Each node
// knows its ring successor and a set of finger shortcuts (successors of
// id + 2^k), giving O(log n) greedy routing.
type Network struct {
	ids   []NodeID // sorted ring positions
	names map[NodeID]string
	link  Link
	// neighbors lists each node's routing candidates (successor +
	// fingers), precomputed.
	neighbors map[NodeID][]NodeID
}

// Config parameterizes a network.
type Config struct {
	// Nodes is the number of overlay nodes; the paper's deployments use
	// 5-7.
	Nodes int
	// Link is applied to every hop; zero value means DefaultLink.
	Link Link
	// Seed perturbs node placement on the ring.
	Seed int64
}

// New builds a network of cfg.Nodes nodes named "node0".."nodeN-1" spread
// deterministically around the ring.
func New(cfg Config) (*Network, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("overlay: need at least 2 nodes, got %d", cfg.Nodes)
	}
	link := cfg.Link
	if link.Delay == 0 && link.Bandwidth == 0 {
		link = DefaultLink
	}
	if link.Delay < 0 || link.Bandwidth <= 0 {
		return nil, fmt.Errorf("overlay: invalid link %+v", link)
	}
	n := &Network{
		names:     make(map[NodeID]string, cfg.Nodes),
		link:      link,
		neighbors: make(map[NodeID][]NodeID, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node%d", i)
		id := NodeID(federate.HashKey(fmt.Sprintf("%s#%d", name, cfg.Seed)))
		for {
			if _, dup := n.names[id]; !dup {
				break
			}
			id++ // resolve rare collisions deterministically
		}
		n.names[id] = name
		n.ids = append(n.ids, id)
	}
	sort.Slice(n.ids, func(i, j int) bool { return n.ids[i] < n.ids[j] })
	for _, id := range n.ids {
		n.neighbors[id] = n.fingerTable(id)
	}
	return n, nil
}

// Nodes returns the ring positions in order.
func (n *Network) Nodes() []NodeID {
	cp := make([]NodeID, len(n.ids))
	copy(cp, n.ids)
	return cp
}

// Name returns the human-readable name of a node.
func (n *Network) Name(id NodeID) string { return n.names[id] }

// Link returns the per-hop link parameters.
func (n *Network) Link() Link { return n.link }

// NodeByIndex returns the i-th node in ring order; convenient for placing
// sources and applications deterministically.
func (n *Network) NodeByIndex(i int) NodeID {
	return n.ids[((i%len(n.ids))+len(n.ids))%len(n.ids)]
}

// successorOf returns the first node at or clockwise after the ring
// position k.
func (n *Network) successorOf(k NodeID) NodeID {
	i := sort.Search(len(n.ids), func(i int) bool { return n.ids[i] >= k })
	if i == len(n.ids) {
		i = 0
	}
	return n.ids[i]
}

// fingerTable computes a node's routing candidates: the ring successor
// plus successors of id+2^k for k = 4..31 (small powers collapse onto the
// successor for small rings).
func (n *Network) fingerTable(id NodeID) []NodeID {
	seen := map[NodeID]bool{id: true}
	var out []NodeID
	add := func(c NodeID) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	add(n.successorOf(id + 1))
	for k := uint(4); k < 32; k++ {
		add(n.successorOf(id + 1<<k))
	}
	return out
}

// clockwise returns the clockwise distance from a to b on the ring.
func clockwise(a, b NodeID) uint32 { return uint32(b - a) }

// Route returns the hop sequence from one node to another using greedy
// clockwise finger routing: each hop moves to the neighbor with the
// smallest remaining clockwise distance to the target. The result includes
// both endpoints. Route(from, from) returns just the node itself.
func (n *Network) Route(from, to NodeID) ([]NodeID, error) {
	if _, ok := n.names[from]; !ok {
		return nil, fmt.Errorf("overlay: unknown node %d", from)
	}
	if _, ok := n.names[to]; !ok {
		return nil, fmt.Errorf("overlay: unknown node %d", to)
	}
	path := []NodeID{from}
	cur := from
	for cur != to {
		best := cur
		bestDist := clockwise(cur, to)
		for _, nb := range n.neighbors[cur] {
			if d := clockwise(nb, to); d < bestDist || (nb == to) {
				best, bestDist = nb, d
				if nb == to {
					break
				}
			}
		}
		if best == cur {
			// Greedy clockwise routing on a ring with successor
			// links always makes progress; reaching here is a bug.
			return nil, fmt.Errorf("overlay: routing stuck at %s toward %s", n.names[cur], n.names[to])
		}
		cur = best
		path = append(path, cur)
		if len(path) > len(n.ids)+1 {
			return nil, fmt.Errorf("overlay: routing loop from %s to %s", n.names[from], n.names[to])
		}
	}
	return path, nil
}
