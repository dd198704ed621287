package overlay

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1}); err == nil {
		t.Error("1-node network should fail")
	}
	if _, err := New(Config{Nodes: 3, Link: Link{Delay: -time.Second, Bandwidth: 1}}); err == nil {
		t.Error("negative delay should fail")
	}
	if _, err := New(Config{Nodes: 3, Link: Link{Delay: time.Millisecond, Bandwidth: 0}}); err == nil {
		t.Error("zero bandwidth should fail")
	}
	n, err := New(Config{Nodes: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Nodes()); got != 7 {
		t.Errorf("Nodes = %d, want 7", got)
	}
	if n.Link() != DefaultLink {
		t.Errorf("Link = %+v, want default", n.Link())
	}
}

func TestRouteReachesEveryPair(t *testing.T) {
	n, err := New(Config{Nodes: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := n.Nodes()
	for _, from := range ids {
		for _, to := range ids {
			path, err := n.Route(from, to)
			if err != nil {
				t.Fatalf("Route(%s, %s): %v", n.Name(from), n.Name(to), err)
			}
			if path[0] != from || path[len(path)-1] != to {
				t.Fatalf("path endpoints wrong: %v", path)
			}
			if from == to && len(path) != 1 {
				t.Errorf("self route has %d hops", len(path)-1)
			}
			if len(path)-1 > len(ids) {
				t.Errorf("path longer than node count: %d", len(path)-1)
			}
		}
	}
}

func TestRouteUnknownNode(t *testing.T) {
	n, err := New(Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Route(NodeID(1), n.Nodes()[0]); err == nil {
		t.Error("unknown source should fail")
	}
	if _, err := n.Route(n.Nodes()[0], NodeID(1)); err == nil {
		t.Error("unknown target should fail")
	}
}

func TestNodeByIndexWraps(t *testing.T) {
	n, err := New(Config{Nodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n.NodeByIndex(0) != n.NodeByIndex(5) {
		t.Error("NodeByIndex should wrap modulo node count")
	}
	if n.NodeByIndex(-1) != n.NodeByIndex(4) {
		t.Error("NodeByIndex should handle negatives")
	}
}

// Property: routing always terminates with a valid path for random network
// sizes and node pairs.
func TestRoutingTerminatesProperty(t *testing.T) {
	f := func(sizeRaw uint8, seed int64, aRaw, bRaw uint8) bool {
		size := 2 + int(sizeRaw%30)
		n, err := New(Config{Nodes: size, Seed: seed})
		if err != nil {
			return false
		}
		ids := n.Nodes()
		from := ids[int(aRaw)%len(ids)]
		to := ids[int(bRaw)%len(ids)]
		path, err := n.Route(from, to)
		if err != nil {
			return false
		}
		// Hops must all be known nodes and strictly progress.
		for i := 1; i < len(path); i++ {
			if _, ok := n.names[path[i]]; !ok {
				return false
			}
			if clockwise(path[i], to) >= clockwise(path[i-1], to) && path[i] != to {
				return false
			}
		}
		return path[len(path)-1] == to
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
