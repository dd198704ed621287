package experiments

import (
	"fmt"

	"gasf/internal/core"
	"gasf/internal/experiments/multicast"
	"gasf/internal/experiments/overlay"
	"gasf/internal/metrics"
	"gasf/internal/wire"
)

// Fig13Bandwidth regenerates the trade-off of Fig 1.3: the bandwidth
// consumed by (a) multicasting the raw stream, (b) self-interested
// filtering with multicast, and (c) group-aware filtering with multicast,
// measured on a 7-node overlay in both the wired (per-link bytes) and
// wireless (per-medium-transmission bytes) views. Group-aware filtering
// must squeeze the stream into the smallest pipe.
func Fig13Bandwidth(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	g, err := fluoroGroup(cfg, sr)
	if err != nil {
		return nil, err
	}

	net, err := overlay.New(overlay.Config{Nodes: 7, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	fs, err := g.Build()
	if err != nil {
		return nil, err
	}
	members := make(map[string]overlay.NodeID, len(fs))
	var apps []string
	for i, f := range fs {
		members[f.ID()] = net.NodeByIndex(i + 1)
		apps = append(apps, f.ID())
	}
	tree, err := multicast.BuildTree(net, net.NodeByIndex(0), members)
	if err != nil {
		return nil, err
	}

	send := func(trs []core.Transmission) (linkBytes, wirelessBytes int64, err error) {
		acct := multicast.NewAccounting()
		for _, tr := range trs {
			tr := tr
			_, err := tree.MulticastSized(tr.Destinations, func(branch []string) int {
				return wire.TransmissionSize(tr.Tuple, branch)
			}, acct)
			if err != nil {
				return 0, 0, err
			}
		}
		return acct.TotalBytes(), acct.WirelessBytes(), nil
	}

	// (a) no filtering: every tuple to every application.
	var raw []core.Transmission
	for i := 0; i < sr.Len(); i++ {
		raw = append(raw, core.Transmission{Tuple: sr.At(i), Destinations: apps, ReleasedAt: sr.At(i).TS})
	}
	// (b) self-interested filtering.
	si, err := runVariant(g, sr, variant{name: "SI", si: true})
	if err != nil {
		return nil, err
	}
	// (c) group-aware filtering.
	ga, err := runVariant(g, sr, variant{name: "RG", opts: core.Options{Algorithm: core.RG}})
	if err != nil {
		return nil, err
	}

	tb := metrics.NewTable("configuration", "link bytes", "wireless bytes", "vs raw")
	vals := make(map[string]float64)
	var rawWireless int64
	for _, row := range []struct {
		name string
		trs  []core.Transmission
	}{
		{"no filtering + multicast", raw},
		{"self-interested filtering + multicast", si.Transmissions},
		{"group-aware filtering + multicast", ga.Transmissions},
	} {
		link, wireless, err := send(row.trs)
		if err != nil {
			return nil, err
		}
		if rawWireless == 0 {
			rawWireless = wireless
		}
		frac := float64(wireless) / float64(rawWireless)
		tb.AddRow(row.name, fmt.Sprintf("%d", link), fmt.Sprintf("%d", wireless), fmtRatio(frac))
		vals[row.name+"/wireless"] = float64(wireless)
		vals[row.name+"/link"] = float64(link)
	}
	return &Report{ID: "F1.3", Title: "Bandwidth consumption trade-off", Text: tb.String(), Values: vals}, nil
}
