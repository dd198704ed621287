package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"gasf/internal/federate"
	"gasf/internal/flowgap"
	"gasf/internal/session"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
)

// DebugSource is the introspection view of one connected publisher.
type DebugSource struct {
	Name        string                     `json:"name"`
	Remote      string                     `json:"remote,omitempty"`
	LastSeen    time.Time                  `json:"last_seen"`
	Subscribers int                        `json:"subscribers"`
	NextOffset  uint64                     `json:"next_offset,omitempty"`
	Latency     *telemetry.LatencySnapshot `json:"delivery_latency,omitempty"`
}

// DebugSubscriber is the introspection view of one subscriber session.
type DebugSubscriber struct {
	App        string                     `json:"app"`
	Source     string                     `json:"source"`
	QueueLen   int                        `json:"queue_len"`
	QueueCap   int                        `json:"queue_cap"`
	Dropped    uint64                     `json:"dropped"`
	Resume     bool                       `json:"resume,omitempty"`
	ResumeFrom uint64                     `json:"resume_from,omitempty"`
	SpliceTo   uint64                     `json:"splice_to,omitempty"`
	RelayEdge  string                     `json:"relay_edge,omitempty"`
	Latency    *telemetry.LatencySnapshot `json:"delivery_latency,omitempty"`
}

// DebugLeg is the introspection view of one upstream relay leg on an
// edge node: the group it deduplicates, the core it streams from, and
// how many local members fan out from it.
type DebugLeg struct {
	Source  string `json:"source"`
	App     string `json:"app"`
	Spec    string `json:"spec"`
	Core    string `json:"core"`
	Members int    `json:"members"`
	// LastOffset is the offset of the last transmission the leg relayed;
	// Durable reports that it holds that resume checkpoint (a delivery
	// was seen since the leg last joined live). Against a non-durable
	// core the offset is 0 and the first resume is refused, clearing it.
	LastOffset uint64 `json:"last_offset,omitempty"`
	Durable    bool   `json:"durable,omitempty"`
}

// DebugFederation is the topology/placement section of /debug/gasf:
// the node's role, the core placement ring, and (on an edge) every
// live upstream leg with its local fan-out.
type DebugFederation struct {
	Role  string          `json:"role"`
	Self  string          `json:"self,omitempty"`
	Cores []federate.Node `json:"cores,omitempty"`
	Stats FederationStats `json:"stats"`
	Legs  []DebugLeg      `json:"legs,omitempty"`
}

// DebugFlowGap is the introspection view of the two-tier flow-gap
// detector: the timer wheel over connected sessions and the
// bounded-memory silence sketch over the whole source population.
type DebugFlowGap struct {
	ScanInterval  time.Duration              `json:"scan_interval_ns"`
	SourceTimeout time.Duration              `json:"source_timeout_ns"`
	Wheel         flowgap.WheelStats         `json:"wheel"`
	Sketch        flowgap.SketchStats        `json:"sketch"`
	ExpiryLag     *telemetry.LatencySnapshot `json:"expiry_lag,omitempty"`
}

// DebugInfo is the full /debug/gasf introspection dump: live sessions,
// queue depths, resume offsets, shard runtime state, and the latency
// quantiles, as one JSON document.
type DebugInfo struct {
	Now         time.Time           `json:"now"`
	Addr        string              `json:"addr"`
	Draining    bool                `json:"draining"`
	Durable     bool                `json:"durable"`
	Policy      string              `json:"policy"`
	Counters    Counters            `json:"counters"`
	Telemetry   *telemetry.Snapshot `json:"telemetry,omitempty"`
	FlowGap     *DebugFlowGap       `json:"flow_gap,omitempty"`
	Shards      []shard.Snapshot    `json:"shards"`
	Sources     []DebugSource       `json:"sources"`
	Subscribers []DebugSubscriber   `json:"subscribers"`
	Federation  *DebugFederation    `json:"federation,omitempty"`
}

// Debug snapshots the live introspection state served at /debug/gasf.
func (s *Server) Debug() DebugInfo {
	info := DebugInfo{
		Now:      time.Now(),
		Addr:     s.ln.Addr().String(),
		Draining: s.isDraining(),
		Durable:  s.core.Log() != nil,
		Policy:   s.cfg.Policy.String(),
		Counters: s.Counters(),
		Shards:   s.core.Runtime().Metrics(),
	}
	if s.tel != nil {
		snap := s.tel.Snapshot()
		info.Telemetry = &snap
	}
	wheel, log := s.core.Wheel(), s.core.Log()
	if wheel != nil {
		cc := s.core.Config()
		fg := &DebugFlowGap{
			ScanInterval:  cc.ScanInterval,
			SourceTimeout: cc.SourceTimeout,
			Wheel:         wheel.Stats(),
			Sketch:        s.sketch.Stats(),
		}
		lag := s.expiryLag.Snapshot()
		fg.ExpiryLag = &lag
		info.FlowGap = fg
	}
	s.core.Inspect(func(src *session.Source[*frameBatch], members map[string]*session.Member[*frameBatch]) {
		d := DebugSource{
			Name:   src.Name,
			Remote: src.Owner.(*sourceSession).conn.RemoteAddr().String(),
			// Liveness is tracked in wheel ticks; the instant shown is
			// the start of the last-touch tick (zero when expiry is
			// disabled and liveness untracked).
			LastSeen:    wheel.TickTime(src.Gap.LastTouch()),
			Subscribers: len(members),
		}
		if log != nil {
			d.NextOffset = log.NextOffset(src.Name)
		}
		if src.Lat != nil {
			snap := src.Lat.Snapshot()
			d.Latency = &snap
		}
		info.Sources = append(info.Sources, d)
		for app, m := range members {
			d := DebugSubscriber{
				App:        app,
				Source:     src.Name,
				QueueLen:   len(m.Queue()),
				QueueCap:   m.QueueCap(),
				Dropped:    m.Dropped(),
				Resume:     m.Resume,
				ResumeFrom: m.ResumeFrom,
				SpliceTo:   m.SpliceTo,
				RelayEdge:  m.Peer.(*subscriber).relayEdge,
			}
			if m.Lat != nil {
				snap := m.Lat.Snapshot()
				d.Latency = &snap
			}
			info.Subscribers = append(info.Subscribers, d)
		}
	})
	if s.cfg.Federation.Role != federate.RoleSingle {
		fed := &DebugFederation{
			Role:  s.cfg.Federation.Role.String(),
			Self:  s.cfg.Federation.Self,
			Stats: s.FederationStats(),
		}
		s.fedMu.RLock()
		if s.topo != nil {
			fed.Cores = s.topo.Nodes()
		}
		s.fedMu.RUnlock()
		if s.fed != nil {
			s.fed.mu.Lock()
			for _, leg := range s.fed.legs {
				leg.mu.Lock()
				fed.Legs = append(fed.Legs, DebugLeg{
					Source:     leg.key.source,
					App:        leg.key.app,
					Spec:       leg.key.spec,
					Core:       leg.coreName,
					Members:    len(leg.members),
					LastOffset: leg.lastOffset.Load(),
					Durable:    leg.seenOffset.Load(),
				})
				leg.mu.Unlock()
			}
			s.fed.mu.Unlock()
			sort.Slice(fed.Legs, func(i, j int) bool {
				a, b := &fed.Legs[i], &fed.Legs[j]
				if a.Source != b.Source {
					return a.Source < b.Source
				}
				if a.App != b.App {
					return a.App < b.App
				}
				return a.Spec < b.Spec
			})
		}
		info.Federation = fed
	}
	sort.Slice(info.Sources, func(i, j int) bool { return info.Sources[i].Name < info.Sources[j].Name })
	sort.Slice(info.Subscribers, func(i, j int) bool {
		a, b := &info.Subscribers[i], &info.Subscribers[j]
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.App < b.App
	})
	return info
}

// serveDebug writes the introspection dump as indented JSON.
func (s *Server) serveDebug(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Debug()); err != nil {
		s.lg.Error("writing debug dump", "err", err)
	}
}
