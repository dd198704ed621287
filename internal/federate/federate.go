// Package federate defines the two-role broker tier that carries the
// paper's group-aware dedup across the network (ROADMAP item 1): core
// nodes own sources — placement is consistent hashing of the source
// name over a virtual-node ring — and edge nodes hold subscriber
// sessions, opening at most one upstream subscription per
// (source-owning core, group) and fanning every local member of the
// group out from that single stream. The package holds the pure
// topology arithmetic shared by servers, clients and tests: roles,
// peer-list parsing, the placement ring, canonical group keys, the
// rebalance diff, and the rendezvous choice of which edge a group's
// relay fan-out should congregate on.
//
// Every ring position and rendezvous weight is HashKey (fnv32a) of a
// name, so a key owner computed by a client matches the owner computed
// by every server handed the same peer list. The paper's overlay
// simulator (internal/experiments/overlay) places its nodes with the
// same function.
package federate

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// HashKey maps an arbitrary string key (a group name, a source name) to a
// ring position, for rendezvous routing.
func HashKey(key string) uint32 {
	h := fnv.New32a()
	// fnv never fails.
	_, _ = h.Write([]byte(key))
	return h.Sum32()
}

// Role is a broker's position in the federation.
type Role int

const (
	// RoleSingle is the default standalone broker: no federation, the
	// node owns every source and every subscriber.
	RoleSingle Role = iota
	// RoleCore owns sources: publishers connect here, the group-aware
	// engines run here, and edges subscribe here on behalf of their
	// local members.
	RoleCore
	// RoleEdge holds subscriber sessions and relays: each distinct
	// (source, group) opens one upstream subscription against the
	// source-owning core, fanned out locally to every member.
	RoleEdge
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleSingle:
		return "single"
	case RoleCore:
		return "core"
	case RoleEdge:
		return "edge"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// ParseRole reads a role name; the empty string is RoleSingle, so an
// unset -role flag keeps the standalone behavior.
func ParseRole(s string) (Role, error) {
	switch s {
	case "", "single":
		return RoleSingle, nil
	case "core":
		return RoleCore, nil
	case "edge":
		return RoleEdge, nil
	default:
		return 0, fmt.Errorf("federate: unknown role %q (want single, core or edge)", s)
	}
}

// Node is one named broker in the federation. The name is the stable
// placement identity (ring positions derive from it, never from the
// address), so a node can move hosts without reshuffling sources.
type Node struct {
	Name string
	Addr string
}

// String renders the node in peer-list notation.
func (n Node) String() string { return n.Name + "=" + n.Addr }

// ParsePeers reads a comma-separated peer list in "name=addr" notation,
// e.g. "core0=10.0.0.1:7070,core1=10.0.0.2:7070". Order does not
// matter: placement depends only on the set of names.
func ParsePeers(s string) ([]Node, error) {
	var out []Node
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		name, addr = strings.TrimSpace(name), strings.TrimSpace(addr)
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("federate: bad peer %q (want name=addr)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("federate: duplicate peer name %q", name)
		}
		seen[name] = true
		out = append(out, Node{Name: name, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("federate: empty peer list")
	}
	return out, nil
}

// FormatPeers renders nodes back into the peer-list notation ParsePeers
// reads.
func FormatPeers(nodes []Node) string {
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = n.String()
	}
	return strings.Join(parts, ",")
}

// VirtualPoints is how many ring positions each core occupies. Virtual
// nodes smooth the source distribution (a single fnv point per node
// makes arc lengths wildly uneven) and bound how much placement shifts
// when a core joins or leaves: only the sources on the arcs the new
// node's points claim move.
const VirtualPoints = 64

// ringPoint is one virtual position: the hash and the index of the
// core that owns it.
type ringPoint struct {
	id   uint32
	node int
}

// Topology is an immutable placement ring over a set of core nodes.
// Build one with NewTopology; two topologies built from the same names
// place every source identically, wherever they are computed.
type Topology struct {
	nodes  []Node // sorted by name
	points []ringPoint
}

// NewTopology builds the placement ring. Names must be unique; order is
// irrelevant.
func NewTopology(cores []Node) (*Topology, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("federate: topology needs at least one core")
	}
	nodes := make([]Node, len(cores))
	copy(nodes, cores)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Name == nodes[i-1].Name {
			return nil, fmt.Errorf("federate: duplicate core name %q", nodes[i].Name)
		}
	}
	t := &Topology{nodes: nodes}
	for i, n := range nodes {
		for v := 0; v < VirtualPoints; v++ {
			t.points = append(t.points, ringPoint{
				id:   HashKey(fmt.Sprintf("%s#%d", n.Name, v)),
				node: i,
			})
		}
	}
	// Ties (identical hashes from different nodes) resolve by name
	// order, deterministically on every builder.
	sort.Slice(t.points, func(i, j int) bool {
		a, b := t.points[i], t.points[j]
		if a.id != b.id {
			return a.id < b.id
		}
		return a.node < b.node
	})
	return t, nil
}

// Nodes returns the cores in name order.
func (t *Topology) Nodes() []Node {
	cp := make([]Node, len(t.nodes))
	copy(cp, t.nodes)
	return cp
}

// Owner returns the core responsible for a source: the ring successor
// of the source name's hash, exactly the rendezvous rule the overlay
// simulator routes multicast groups by.
func (t *Topology) Owner(source string) Node {
	k := HashKey(source)
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].id >= k })
	if i == len(t.points) {
		i = 0
	}
	return t.nodes[t.points[i].node]
}

// Moved reports which of the given sources change owner from t to next
// — the rebalance diff a node join or leave triggers. Sources whose
// owner is unchanged keep their upstream legs untouched.
func Moved(t, next *Topology, sources []string) []string {
	var out []string
	for _, s := range sources {
		if t.Owner(s).Name != next.Owner(s).Name {
			out = append(out, s)
		}
	}
	return out
}

// GroupKey canonicalizes the identity an upstream leg is deduplicated
// by: the source plus the group — the application name and the
// lossless canonical rendering of its quality spec (quality.Spec's
// String). Two subscriptions with the same key share one core→edge
// leg; the spec string MUST be the canonical rendering, or equivalent
// groups would open duplicate legs.
func GroupKey(source, app, canonicalSpec string) string {
	return source + "\x00" + app + "\x00" + canonicalSpec
}

// EdgeFor picks the edge a group's subscribers should congregate on:
// highest-random-weight (rendezvous) hashing of the group key against
// each edge name. Clients that route every member of a group to the
// same edge collapse the group's relay fan-out to a single core→edge
// leg network-wide; the choice is stable under edge joins and leaves
// except for the groups whose winner changed.
func EdgeFor(groupKey string, edges []Node) (Node, error) {
	if len(edges) == 0 {
		return Node{}, fmt.Errorf("federate: no edges to place group on")
	}
	best, bestW := 0, uint32(0)
	for i, e := range edges {
		w := HashKey(groupKey + "\x00" + e.Name)
		if i == 0 || w > bestW || (w == bestW && e.Name < edges[best].Name) {
			best, bestW = i, w
		}
	}
	return edges[best], nil
}
