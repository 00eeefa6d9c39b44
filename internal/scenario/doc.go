// Package scenario builds simulation configurations compositionally.
// A scenario is a node.Config assembled from functional options — a
// PHY preset refined by per-axis options — plus a fixed table that
// names the paper's scenarios so CLIs and tests can enumerate and look
// them up by string.
//
// # Builder options
//
// Options apply in order: later options override earlier ones, so a
// preset can be specialized freely:
//
//	cfg := scenario.New(scenario.With80211n(), scenario.WithMode(hack.ModeMoreData),
//		scenario.WithClients(4), scenario.WithSeed(7))
//
// The presets are With80211n (the paper's §4.3 ns-3 setup: 150 Mbps
// 802.11n, A-MPDU aggregation, wired backhaul) and WithSoRa (the §4.1
// software-radio testbed: 802.11a at 54 Mbps, AP-resident sender,
// late link-layer ACKs). Per-axis options:
//
//   - WithMode: the HACK ACK-holding policy (hack.ModeOff = stock).
//   - WithClients, WithSeed, WithWire: client count, repetition and
//     backhaul knobs.
//   - WithGrid, WithBSSLayout, WithGeometry, WithPathLoss: the
//     layout. WithGrid and WithBSSLayout each write the whole BSS list
//     (node.Config.BSSs), so whichever comes last decides it; the
//     geometry decides whether positions matter.
//   - WithRate: the PHY data rate. It releases the LL ACK rate back
//     to the 802.11 control-response rules.
//   - WithRateAdapter: rate adaptation — "fixed" (pin the scenario
//     rate), "fixed:<rate>", "ideal" (SNR oracle), "argmax"
//     (expected-goodput oracle), both resolved to one rate per
//     network, or "minstrel" (a sampling adapter per station). See
//     mac.RateAdapter.
//   - WithUniformLoss, WithSNR: channel error models. These compose —
//     each layers onto whatever model is already installed as
//     independent loss processes.
//
// # Registry
//
// Lookup, All and WorkloadOf read the named scenarios: each preset ×
// HACK mode ("ht150-moredata", "sora-stock", ...), the upload and
// mixed 802.11n workloads, rate-adaptive 802.11n variants
// ("ht150-moredata-minstrel", "ht150-stock-ideal", ...) and one
// 802.11n scenario per spatial topology. TopologyNames and
// TopologyOption read the named topologies, the campaign topology
// axis: each is a layout, a geometry and a BSS list, and applying one
// replaces the configuration's geometry and BSS list ("default" sets
// both to nil) without setting a client count. Both tables are built
// once, as the package initializes, and are only read after that, so
// they need no lock. Entry.Config re-applies the entry's options, so
// extra options specialize a named scenario without changing the
// table.
//
// # Determinism
//
// A scenario is pure data: building one performs no I/O and draws no
// randomness. All randomness is deferred to network construction
// (node.New), which derives every stochastic subsystem — MAC
// backoffs, channel noise, Minstrel probe schedules — from the single
// configured Seed. Equal configurations
// therefore simulate bit-identically, and a configuration value can
// seed many concurrent simulations (see internal/campaign).
package scenario
