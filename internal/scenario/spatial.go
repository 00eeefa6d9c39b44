package scenario

import (
	"math"
	"sort"

	"tcphack/internal/channel"
	"tcphack/internal/node"
)

// WithGeometry installs a spatial PHY configuration on the medium
// (per-pair path loss, per-receiver carrier sense, SINR capture). Nil
// restores the single collision domain.
func WithGeometry(g *channel.Geometry) Option {
	return func(c *node.Config) { c.Geometry = g }
}

// WithPathLoss switches the medium to the spatial PHY with the default
// geometry: the paper's indoor log-distance path-loss constants, a
// -82 dBm carrier-sense threshold and delivery floor, and ideal
// capture (≈51.5 m sense/delivery range).
func WithPathLoss() Option {
	return WithGeometry(channel.DefaultGeometry())
}

// WithBSSLayout replaces the single-BSS star with the given BSS specs,
// all contending on one medium. Specs with zero Clients inherit the
// scenario's client count (so a campaign's clients axis scales every
// BSS together).
func WithBSSLayout(specs ...node.BSSSpec) Option {
	layout := append([]node.BSSSpec(nil), specs...)
	return func(c *node.Config) { c.BSSs = append([]node.BSSSpec(nil), layout...) }
}

// clusterPos places clients on a small circle of the given radius
// around a cluster center — the client layout for the canonical
// two-BSS topologies.
func clusterPos(center channel.Pos, radius float64, n, i int) channel.Pos {
	angle := 2 * math.Pi * float64(i) / float64(n)
	return channel.Pos{
		X: center.X + float64(radius*math.Cos(angle)),
		Y: center.Y + float64(radius*math.Sin(angle)),
	}
}

// clusteredBSS builds a BSSSpec whose clients sit on a 3 m circle
// around center. Clients stays 0 so the scenario/campaign client count
// applies per BSS.
func clusteredBSS(ap, center channel.Pos) node.BSSSpec {
	return node.BSSSpec{
		APPos: ap,
		ClientPos: func(i int) channel.Pos {
			// The circle size only needs every client near its cluster;
			// n in the angle just spreads them, so a fixed modulus keeps
			// the closure independent of the final client count.
			return clusterPos(center, 3, 8, i%8)
		},
	}
}

// Topology registry: named position/BSS layouts that campaigns sweep
// as the "topology" axis.
var topoRegistry = map[string]topoEntry{}

type topoEntry struct {
	desc string
	opts []Option
}

// RegisterTopology names a topology built from opts (position/BSS/
// geometry options). Registering an existing name replaces it.
func RegisterTopology(name, desc string, opts ...Option) {
	regMu.Lock()
	defer regMu.Unlock()
	topoRegistry[name] = topoEntry{desc: desc, opts: opts}
}

// TopologyOption returns a single option applying the named topology,
// and whether the name is registered.
func TopologyOption(name string) (Option, bool) {
	regMu.RLock()
	e, ok := topoRegistry[name]
	regMu.RUnlock()
	if !ok {
		return nil, false
	}
	return func(c *node.Config) {
		for _, o := range e.opts {
			o(c)
		}
	}, true
}

// TopologyNames lists registered topology names, sorted.
func TopologyNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(topoRegistry))
	for n := range topoRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Canonical spatial layouts. Under the default geometry the sense/
// delivery range is ≈51.5 m, so:
//
//   - 2bss-hidden: APs 80 m apart (mutually hidden) with client
//     clusters at 25 m and 55 m — each cluster decodes its own AP but
//     the APs cannot sense each other, so their downlink bursts
//     overlap at the clients and collide (the hidden-terminal regime
//     RTS/CTS would fix).
//   - 2bss-overlap: APs 30 m apart — inside carrier-sense range, so
//     the BSSs defer to each other and share airtime politely (the
//     exposed-terminal regime; no extra collisions, but each BSS sees
//     roughly half the medium).
//   - grid-3x3-dense: one BSS, nine clients on a 5 m grid — the dense
//     deployment where everyone senses everyone.
func init() {
	RegisterTopology("default", "one collision domain, legacy star topology")
	RegisterTopology("2bss-hidden",
		"two BSSs 80 m apart, mutually hidden APs, client clusters in the crossfire",
		WithPathLoss(),
		WithBSSLayout(
			clusteredBSS(channel.Pos{}, channel.Pos{X: 25}),
			clusteredBSS(channel.Pos{X: 80}, channel.Pos{X: 55}),
		))
	RegisterTopology("2bss-overlap",
		"two BSSs 30 m apart, inside carrier-sense range, politely sharing airtime",
		WithPathLoss(),
		WithBSSLayout(
			node.BSSSpec{APPos: channel.Pos{}},
			node.BSSSpec{APPos: channel.Pos{X: 30}},
		))
	RegisterTopology("grid-3x3-dense",
		"one BSS, nine clients on a 5 m grid under the spatial PHY",
		WithPathLoss(), WithGrid(9, 5))

	for _, t := range []string{"2bss-hidden", "2bss-overlap", "grid-3x3-dense"} {
		topo, _ := TopologyOption(t)
		Register(t,
			"150 Mbps 802.11n on the spatial PHY, topology "+t,
			With80211n(), topo)
	}
}
