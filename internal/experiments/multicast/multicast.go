// Package multicast implements the application-level multicast service the
// engine's output feeds into (§1.2, §2.4.3): Scribe-style trees built over
// the overlay (each member routes toward the group's rendezvous root and
// the reverse paths form the tree), tuple-level destination labeling so a
// tuple crosses any link at most once, and per-link traffic accounting
// used by the bandwidth experiments.
package multicast

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gasf/internal/experiments/overlay"
)

// LinkKey identifies a directed overlay link.
type LinkKey struct {
	From, To overlay.NodeID
}

// Accounting aggregates traffic over a run. It is safe for concurrent use.
//
// Two views are kept. The wired view counts each directed link crossing
// (messages/bytes per link). The wireless view counts each forwarding
// node's sends: in the multi-hop wireless mesh the paper targets, a node
// transmits a tuple once on the shared medium no matter how many tree
// children need it, so the node-send count is the bandwidth measure that
// group-aware filtering minimizes.
type Accounting struct {
	mu        sync.Mutex
	messages  map[LinkKey]int
	bytes     map[LinkKey]int64
	nodeBytes map[overlay.NodeID]int64
}

// NewAccounting creates an empty accounting ledger.
func NewAccounting() *Accounting {
	return &Accounting{
		messages:  make(map[LinkKey]int),
		bytes:     make(map[LinkKey]int64),
		nodeBytes: make(map[overlay.NodeID]int64),
	}
}

func (a *Accounting) add(k LinkKey, sizeBytes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.messages[k]++
	a.bytes[k] += int64(sizeBytes)
}

func (a *Accounting) addSend(n overlay.NodeID, sizeBytes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nodeBytes[n] += int64(sizeBytes)
}

// WirelessBytes returns the total bytes transmitted on the shared medium:
// one send per forwarding node per multicast payload.
func (a *Accounting) WirelessBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total int64
	for _, b := range a.nodeBytes {
		total += b
	}
	return total
}

// TotalMessages returns the number of link crossings recorded.
func (a *Accounting) TotalMessages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, n := range a.messages {
		total += n
	}
	return total
}

// TotalBytes returns the bytes that crossed links.
func (a *Accounting) TotalBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total int64
	for _, n := range a.bytes {
		total += n
	}
	return total
}

// BusiestLink returns the link with the most bytes and its byte count.
func (a *Accounting) BusiestLink() (LinkKey, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var bestKey LinkKey
	var best int64 = -1
	// Deterministic scan order.
	keys := make([]LinkKey, 0, len(a.bytes))
	for k := range a.bytes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	for _, k := range keys {
		if a.bytes[k] > best {
			bestKey, best = k, a.bytes[k]
		}
	}
	if best < 0 {
		best = 0
	}
	return bestKey, best
}

// Tree is a Scribe-style multicast tree rooted at the source's node. Each
// subscriber joined by routing toward the root; tree edges are the reverse
// of those join paths.
type Tree struct {
	net  *overlay.Network
	root overlay.NodeID
	// children maps a node to its downstream tree neighbors.
	children map[overlay.NodeID][]overlay.NodeID
	// memberNode maps a subscriber (application ID) to its node.
	memberNode map[string]overlay.NodeID
	// depth caches hop counts from the root.
	depth map[overlay.NodeID]int
}

// BuildTree constructs the multicast tree for one group: subscribers is a
// map from application ID to the node hosting it. The root is typically
// the source node, so forwarding starts where the group-aware filters run.
func BuildTree(net *overlay.Network, root overlay.NodeID, subscribers map[string]overlay.NodeID) (*Tree, error) {
	if net == nil {
		return nil, fmt.Errorf("multicast: nil network")
	}
	if len(subscribers) == 0 {
		return nil, fmt.Errorf("multicast: tree needs at least one subscriber")
	}
	t := &Tree{
		net:        net,
		root:       root,
		children:   make(map[overlay.NodeID][]overlay.NodeID),
		memberNode: make(map[string]overlay.NodeID, len(subscribers)),
		depth:      map[overlay.NodeID]int{root: 0},
	}
	edge := make(map[LinkKey]bool)
	// Deterministic join order.
	apps := make([]string, 0, len(subscribers))
	for app := range subscribers {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		node := subscribers[app]
		t.memberNode[app] = node
		// Join: route from the member toward the root; reversing the
		// path gives the delivery branch root -> ... -> member.
		path, err := net.Route(node, root)
		if err != nil {
			return nil, fmt.Errorf("multicast: joining %s: %w", app, err)
		}
		for i := len(path) - 1; i > 0; i-- {
			parent, child := path[i], path[i-1]
			k := LinkKey{From: parent, To: child}
			if !edge[k] {
				edge[k] = true
				t.children[parent] = append(t.children[parent], child)
			}
		}
	}
	// Compute depths by walking from the root.
	var walk func(n overlay.NodeID)
	walk = func(n overlay.NodeID) {
		for _, c := range t.children[n] {
			if _, seen := t.depth[c]; !seen {
				t.depth[c] = t.depth[n] + 1
				walk(c)
			}
		}
	}
	walk(root)
	return t, nil
}

// Root returns the tree root.
func (t *Tree) Root() overlay.NodeID { return t.root }

// Members returns the subscriber IDs in sorted order.
func (t *Tree) Members() []string {
	out := make([]string, 0, len(t.memberNode))
	for app := range t.memberNode {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// Delivery reports one subscriber's receipt of a multicast payload.
type Delivery struct {
	App   string
	Node  overlay.NodeID
	Delay time.Duration
}

// Multicast sends one payload of sizeBytes to the given destination
// subscribers (tuple-level multicast: every payload may have a different
// destination set, §2.2.1). The payload crosses each tree link at most
// once — links are shared by all destinations below them — and the
// returned deliveries carry per-destination delays. Traffic is recorded in
// acct when non-nil.
func (t *Tree) Multicast(dests []string, sizeBytes int, acct *Accounting) ([]Delivery, error) {
	return t.MulticastSized(dests, func([]string) int { return sizeBytes }, acct)
}

// MulticastSized is Multicast with per-branch message sizing: sizeBelow
// receives the (sorted) destinations reachable through a branch and
// returns the bytes the message occupies on that hop. This models label
// pruning at forwarding nodes — a tuple headed for {A, B, C} carries only
// {A}'s label down A's branch — which is what makes destination-labeled
// multicast cheaper than unicast fan-out on every topology.
func (t *Tree) MulticastSized(dests []string, sizeBelow func(dests []string) int, acct *Accounting) ([]Delivery, error) {
	if len(dests) == 0 {
		return nil, nil
	}
	// Destination nodes and per-node destination apps.
	nodeApps := make(map[overlay.NodeID][]string)
	for _, app := range dests {
		node, ok := t.memberNode[app]
		if !ok {
			return nil, fmt.Errorf("multicast: %q is not a member of this group", app)
		}
		nodeApps[node] = append(nodeApps[node], app)
	}
	var deliveries []Delivery
	// walk returns the destinations at or below n; deliveries record the
	// accumulated delay of the path that reached them.
	var walk func(n overlay.NodeID, delay time.Duration) []string
	walk = func(n overlay.NodeID, delay time.Duration) []string {
		var below []string
		if apps, ok := nodeApps[n]; ok {
			sorted := make([]string, len(apps))
			copy(sorted, apps)
			sort.Strings(sorted)
			for _, app := range sorted {
				deliveries = append(deliveries, Delivery{App: app, Node: n, Delay: delay})
			}
			below = append(below, sorted...)
		}
		var childDests []string
		for _, c := range t.children[n] {
			// The hop size depends on the labels carried down this
			// branch; discover the branch's destinations before
			// charging the hop.
			branch := t.collectBelow(c, nodeApps)
			if len(branch) == 0 {
				continue
			}
			size := sizeBelow(branch)
			hop := t.net.Link().Delay +
				time.Duration(float64(size*8)/t.net.Link().Bandwidth*float64(time.Second))
			below = append(below, walk(c, delay+hop)...)
			childDests = append(childDests, branch...)
			if acct != nil {
				acct.add(LinkKey{From: n, To: c}, size)
			}
		}
		if len(childDests) > 0 && acct != nil {
			// Wireless view: one medium transmission serves every
			// needed child; it carries the union of the branches'
			// labels (each child prunes on forwarding).
			acct.addSend(n, sizeBelow(sortedUnion(childDests)))
		}
		return below
	}
	walk(t.root, 0)
	if len(deliveries) != len(dests) {
		return nil, fmt.Errorf("multicast: delivered %d of %d destinations (unreachable members)", len(deliveries), len(dests))
	}
	sort.Slice(deliveries, func(i, j int) bool { return deliveries[i].App < deliveries[j].App })
	return deliveries, nil
}

// collectBelow gathers the destination apps at or below a node, sorted.
func (t *Tree) collectBelow(n overlay.NodeID, nodeApps map[overlay.NodeID][]string) []string {
	var out []string
	var rec func(m overlay.NodeID)
	rec = func(m overlay.NodeID) {
		out = append(out, nodeApps[m]...)
		for _, c := range t.children[m] {
			rec(c)
		}
	}
	rec(n)
	sort.Strings(out)
	return out
}

// sortedUnion deduplicates and sorts app labels.
func sortedUnion(apps []string) []string {
	seen := make(map[string]bool, len(apps))
	out := make([]string, 0, len(apps))
	for _, a := range apps {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}
