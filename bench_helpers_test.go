package gasf_test

import (
	"gasf/internal/experiments/multicast"
	"gasf/internal/experiments/overlay"
)

// overlayNetwork builds the 7-node benchmark overlay, mirroring the
// paper's Emulab deployments.
func overlayNetwork() (*overlay.Network, error) {
	return overlay.New(overlay.Config{Nodes: 7, Seed: 1})
}

// buildTree builds a 3-subscriber multicast tree rooted at the first node.
func buildTree(net *overlay.Network) (*multicast.Tree, *multicast.Accounting, error) {
	members := map[string]overlay.NodeID{
		"A": net.NodeByIndex(1),
		"B": net.NodeByIndex(2),
		"C": net.NodeByIndex(3),
	}
	tree, err := multicast.BuildTree(net, net.NodeByIndex(0), members)
	if err != nil {
		return nil, nil, err
	}
	return tree, multicast.NewAccounting(), nil
}
