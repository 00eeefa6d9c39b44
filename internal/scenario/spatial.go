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

// WithBSSLayout sets the BSS list to the given specs, all contending
// on one medium; it replaces any earlier layout, WithGrid's included,
// and no specs restore the single-BSS star. Specs with zero Clients
// inherit the scenario's client count (so a campaign's clients axis
// scales every BSS together).
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

// A topology is a named layout: the medium's geometry and the BSS
// list. It carries no client count, so the configuration's (or a
// campaign's clients axis) sizes every BSS that does not state its
// own.
type topology struct {
	geometry *channel.Geometry
	bsss     []node.BSSSpec
}

// apply replaces the configuration's geometry and BSS list with the
// topology's, so nothing of the layout it is applied over survives.
func (t topology) apply(c *node.Config) {
	c.Geometry = t.geometry
	c.BSSs = append([]node.BSSSpec(nil), t.bsss...)
}

// topologies names the canonical layouts that campaigns sweep as the
// "topology" axis. Under the default geometry the sense/delivery range
// is ≈51.5 m, so:
//
//   - default: one collision domain, the paper's star (no geometry,
//     no BSS list).
//   - 2bss-hidden: APs 80 m apart (mutually hidden) with client
//     clusters at 25 m and 55 m — each cluster decodes its own AP but
//     the APs cannot sense each other, so their downlink bursts
//     overlap at the clients and collide (the hidden-terminal regime
//     RTS/CTS would fix).
//   - 2bss-overlap: APs 30 m apart — inside carrier-sense range, so
//     the BSSs defer to each other and share airtime politely (the
//     exposed-terminal regime; no extra collisions, but each BSS sees
//     roughly half the medium).
//   - grid-3x3-dense: one BSS whose clients sit on a 3×3 grid with 5 m
//     spacing — the dense deployment where everyone senses everyone.
//
// The table is built once, as the package initializes, and only read
// after that.
var topologies = map[string]topology{
	"default": {},
	"2bss-hidden": {channel.DefaultGeometry(), []node.BSSSpec{
		clusteredBSS(channel.Pos{}, channel.Pos{X: 25}),
		clusteredBSS(channel.Pos{X: 80}, channel.Pos{X: 55}),
	}},
	"2bss-overlap": {channel.DefaultGeometry(), []node.BSSSpec{
		{APPos: channel.Pos{}},
		{APPos: channel.Pos{X: 30}},
	}},
	"grid-3x3-dense": {channel.DefaultGeometry(), []node.BSSSpec{gridBSS(9, 5)}},
}

// TopologyOption returns the option that applies the named topology,
// and whether the name is registered. The topology replaces the
// configuration's geometry and BSS list and leaves its client count
// alone.
func TopologyOption(name string) (Option, bool) {
	t, ok := topologies[name]
	if !ok {
		return nil, false
	}
	return t.apply, true
}

// TopologyNames lists the registered topology names, sorted.
func TopologyNames() []string {
	names := make([]string, 0, len(topologies))
	for n := range topologies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
