package multicast

import (
	"testing"
	"time"

	"gasf/internal/experiments/overlay"
)

func testNet(t *testing.T, nodes int) *overlay.Network {
	t.Helper()
	n, err := overlay.New(overlay.Config{Nodes: nodes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func subs(net *overlay.Network, apps ...string) map[string]overlay.NodeID {
	m := make(map[string]overlay.NodeID, len(apps))
	for i, a := range apps {
		m[a] = net.NodeByIndex(i + 1)
	}
	return m
}

func TestBuildTreeValidation(t *testing.T) {
	net := testNet(t, 5)
	if _, err := BuildTree(nil, net.NodeByIndex(0), subs(net, "a")); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := BuildTree(net, net.NodeByIndex(0), nil); err == nil {
		t.Error("empty membership should fail")
	}
	tr, err := BuildTree(net, net.NodeByIndex(0), subs(net, "a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Members(); len(got) != 3 || got[0] != "a" {
		t.Errorf("Members = %v", got)
	}
	if tr.Root() != net.NodeByIndex(0) {
		t.Error("wrong root")
	}
}

func TestMulticastDeliversToExactDestinations(t *testing.T) {
	net := testNet(t, 8)
	tr, err := BuildTree(net, net.NodeByIndex(0), subs(net, "A", "B", "C"))
	if err != nil {
		t.Fatal(err)
	}
	acct := NewAccounting()
	ds, err := tr.Multicast([]string{"A", "C"}, 100, acct)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].App != "A" || ds[1].App != "C" {
		t.Fatalf("deliveries = %v", ds)
	}
	for _, d := range ds {
		if d.Delay <= 0 {
			t.Errorf("delivery %s has non-positive delay %v", d.App, d.Delay)
		}
	}
	if acct.TotalMessages() == 0 {
		t.Error("no link traffic recorded")
	}
}

func TestMulticastUnknownMember(t *testing.T) {
	net := testNet(t, 5)
	tr, err := BuildTree(net, net.NodeByIndex(0), subs(net, "A"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Multicast([]string{"nope"}, 10, nil); err == nil {
		t.Error("unknown destination should fail")
	}
	if ds, err := tr.Multicast(nil, 10, nil); err != nil || ds != nil {
		t.Error("empty destination list should be a no-op")
	}
}

// TestSharedLinksCountedOnce: the defining property of multicast — a tuple
// going to several subscribers behind the same branch crosses the shared
// links once.
func TestSharedLinksCountedOnce(t *testing.T) {
	net := testNet(t, 10)
	members := subs(net, "A", "B", "C", "D", "E")
	tr, err := BuildTree(net, net.NodeByIndex(0), members)
	if err != nil {
		t.Fatal(err)
	}
	all := NewAccounting()
	if _, err := tr.Multicast([]string{"A", "B", "C", "D", "E"}, 100, all); err != nil {
		t.Fatal(err)
	}
	separate := NewAccounting()
	for _, app := range []string{"A", "B", "C", "D", "E"} {
		if _, err := tr.Multicast([]string{app}, 100, separate); err != nil {
			t.Fatal(err)
		}
	}
	if all.TotalBytes() >= separate.TotalBytes() {
		t.Errorf("multicast bytes %d not below unicast-sum bytes %d",
			all.TotalBytes(), separate.TotalBytes())
	}
}

// TestDelayGrowsWithDepth: a subscriber farther down the tree sees more
// delay than one at the root's child.
func TestDelayGrowsWithDepth(t *testing.T) {
	net, err := overlay.New(overlay.Config{Nodes: 12, Seed: 2,
		Link: overlay.Link{Delay: 10 * time.Millisecond, Bandwidth: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[string]overlay.NodeID)
	for i := 1; i < 12; i++ {
		members[string(rune('A'+i-1))] = net.NodeByIndex(i)
	}
	tr, err := BuildTree(net, net.NodeByIndex(0), members)
	if err != nil {
		t.Fatal(err)
	}
	apps := tr.Members()
	ds, err := tr.Multicast(apps, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	minD, maxD := ds[0].Delay, ds[0].Delay
	for _, d := range ds {
		if d.Delay < minD {
			minD = d.Delay
		}
		if d.Delay > maxD {
			maxD = d.Delay
		}
	}
	if maxD == minD {
		t.Skip("all members at equal depth for this seed; no depth contrast")
	}
	if maxD < 2*minD {
		t.Logf("depth contrast is mild: min %v max %v", minD, maxD)
	}
}

func TestAccountingAggregates(t *testing.T) {
	a := NewAccounting()
	k1 := LinkKey{From: 1, To: 2}
	k2 := LinkKey{From: 2, To: 3}
	a.add(k1, 100)
	a.add(k1, 100)
	a.add(k2, 50)
	if got := a.TotalMessages(); got != 3 {
		t.Errorf("TotalMessages = %d, want 3", got)
	}
	if got := a.TotalBytes(); got != 250 {
		t.Errorf("TotalBytes = %d, want 250", got)
	}
	busiest, n := a.BusiestLink()
	if busiest != k1 || n != 200 {
		t.Errorf("BusiestLink = %v %d, want %v 200", busiest, n, k1)
	}
	empty := NewAccounting()
	if _, n := empty.BusiestLink(); n != 0 {
		t.Errorf("empty BusiestLink bytes = %d", n)
	}
}
