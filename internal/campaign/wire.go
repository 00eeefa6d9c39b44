package campaign

import (
	"context"
	"fmt"
	"strconv"

	"tcphack/internal/hack"
	"tcphack/internal/mac"
	"tcphack/internal/phy"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
)

// WireAxes is Axes in wire form: every dimension expressed in the
// command-line vocabulary (mode names, named rates, adapter specs), so
// a sweep grid can cross a process boundary as JSON and re-materialize
// identically on the other side.
type WireAxes struct {
	// Modes are HACK mode names (hack.ParseMode vocabulary).
	Modes []string `json:"modes,omitempty"`
	// Clients are the client-count axis values.
	Clients []int `json:"clients,omitempty"`
	// Seeds are the RNG seed axis values.
	Seeds []int64 `json:"seeds,omitempty"`
	// Rates are named PHY rates (phy.ParseRate vocabulary).
	Rates []string `json:"rates,omitempty"`
	// Adapters are rate-adapter specs (mac.ParseAdapterSpec vocabulary).
	Adapters []string `json:"adapters,omitempty"`
	// Loss are uniform per-frame loss probabilities.
	Loss []float64 `json:"loss,omitempty"`
	// SNRsDB are fixed channel SNRs in dB.
	SNRsDB []float64 `json:"snrs_db,omitempty"`
	// Topologies are registered topology names
	// (scenario.TopologyNames vocabulary); each replaces the base
	// scenario's layout.
	Topologies []string `json:"topologies,omitempty"`
}

// Axes parses the wire form back into executable Axes, validating
// every mode name, rate name, adapter spec and topology name, and
// rejecting client counts below 1 and loss probabilities outside
// [0, 1) (NaN included).
func (w WireAxes) Axes() (Axes, error) {
	var a Axes
	for _, s := range w.Modes {
		m, err := hack.ParseMode(s)
		if err != nil {
			return Axes{}, err
		}
		a.Modes = append(a.Modes, m)
	}
	for _, n := range w.Clients {
		if n < 1 {
			return Axes{}, fmt.Errorf("clients axis value %d out of range (want ≥ 1)", n)
		}
		a.Clients = append(a.Clients, n)
	}
	a.Seeds = append(a.Seeds, w.Seeds...)
	for _, s := range w.Rates {
		r, err := phy.ParseRate(s)
		if err != nil {
			return Axes{}, err
		}
		a.Rates = append(a.Rates, r)
	}
	for _, s := range w.Adapters {
		if _, err := mac.ParseAdapterSpec(s); err != nil {
			return Axes{}, err
		}
		a.Adapters = append(a.Adapters, s)
	}
	for _, p := range w.Loss {
		if !(p >= 0 && p < 1) {
			return Axes{}, fmt.Errorf("loss axis value %v out of range (want a probability in [0, 1))", p)
		}
		a.Loss = append(a.Loss, p)
	}
	a.SNRsDB = append(a.SNRsDB, w.SNRsDB...)
	for _, s := range w.Topologies {
		if _, ok := scenario.TopologyOption(s); !ok {
			return Axes{}, fmt.Errorf("campaign: unknown topology %q (want one of %v)",
				s, scenario.TopologyNames())
		}
		a.Topologies = append(a.Topologies, s)
	}
	return a, nil
}

// maxWirePoints bounds the grid a wire spec may plan. Planning a job
// enumerates and fingerprints every point (about 1.2 kB each), so
// without a bound a few kB of JSON could ask for millions of them.
const maxWirePoints = 1 << 14

// gridSize returns the number of points the axes span, the product of
// their lengths with an empty axis counting once, or false once that
// product passes maxWirePoints. It multiplies lengths only, so it
// rejects an oversized grid before anything is enumerated, and it
// cannot overflow.
func (w WireAxes) gridSize() (int, bool) {
	n := 1
	for _, l := range []int{len(w.Modes), len(w.Clients), len(w.Seeds), len(w.Rates),
		len(w.Adapters), len(w.Loss), len(w.SNRsDB), len(w.Topologies)} {
		if l = max(l, 1); l > maxWirePoints/n {
			return 0, false
		}
		n *= l
	}
	return n, true
}

// WireSpec is the serializable subset of Spec: a campaign declared as
// a registered scenario name plus wire-form axes and the measurement
// windows. It deliberately omits Spec's function hooks (Build,
// Workload beyond the named kinds, Collect, Skip, Progress) — only
// registry scenarios with named workloads are servable, which is what
// makes a job's grid points reproducible on any worker and therefore
// memoizable. Two processes resolving the same WireSpec against the
// same code version produce byte-identical result rows.
type WireSpec struct {
	// Name labels the result rows; empty defaults to Scenario.
	Name string `json:"name,omitempty"`
	// Scenario is the registered scenario name (scenario.Lookup).
	Scenario string `json:"scenario"`
	// Workload is the named traffic pattern ("download", "upload",
	// "mixed"); empty adopts the scenario registry entry's workload.
	Workload string `json:"workload,omitempty"`
	// Axes are the sweep dimensions in wire form.
	Axes WireAxes `json:"axes"`
	// Warmup, Measure, and Duration are Spec's measurement windows, in
	// simulated nanoseconds.
	Warmup   sim.Duration `json:"warmup_ns,omitempty"`
	Measure  sim.Duration `json:"measure_ns,omitempty"`
	Duration sim.Duration `json:"duration_ns,omitempty"`
}

// DisplayName is the campaign label result rows carry: Name, falling
// back to the scenario name.
func (w WireSpec) DisplayName() string {
	if w.Name != "" {
		return w.Name
	}
	return w.Scenario
}

// ResolvedWorkload is the workload kind the spec executes: the
// explicit Workload field, falling back to the scenario registry
// entry's registered workload (empty means the default download
// pattern).
func (w WireSpec) ResolvedWorkload() string {
	if w.Workload != "" {
		return w.Workload
	}
	return scenario.WorkloadOf(w.Scenario)
}

// Spec materializes the wire spec into an executable campaign Spec,
// resolving the scenario from the registry and the workload from the
// named-workload vocabulary, and rejecting out-of-range axis values
// (see WireAxes.Axes), grids of more than maxWirePoints (16384) points
// and negative measurement windows. It is the one
// place a sweep declared outside the process is validated: hackbench's
// local sweeps, -submit and -dry-run, and the daemon's job admission
// all come through here. The resolution is deterministic: every
// process holding the same registry (i.e. the same build) produces an
// equivalent Spec, which is the distributed layer's correctness
// foundation.
func (w WireSpec) Spec() (Spec, error) {
	e, ok := scenario.Lookup(w.Scenario)
	if !ok {
		return Spec{}, fmt.Errorf("campaign: unknown scenario %q in wire spec", w.Scenario)
	}
	if _, ok := w.Axes.gridSize(); !ok {
		return Spec{}, fmt.Errorf("campaign: wire axes span more than %d points", maxWirePoints)
	}
	axes, err := w.Axes.Axes()
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: bad wire axes: %v", err)
	}
	if w.Warmup < 0 || w.Measure < 0 || w.Duration < 0 {
		return Spec{}, fmt.Errorf("campaign: negative measurement window (warmup_ns %d, measure_ns %d, duration_ns %d)",
			w.Warmup, w.Measure, w.Duration)
	}
	workload, err := NamedWorkload(w.ResolvedWorkload())
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Name:     w.DisplayName(),
		Base:     e.Config(),
		Axes:     axes,
		Warmup:   w.Warmup,
		Measure:  w.Measure,
		Duration: w.Duration,
		Workload: workload,
	}, nil
}

// SweptAxes names the axes the wire spec actually sweeps, in canonical
// column order. It is part of a grid point's memoization identity:
// sweeping an axis can change more than the axis value itself (e.g.
// sweeping the rate reverts the LL ACK rate to the control-response
// rules), so a swept point and an unswept point with equal axis values
// are distinct simulations.
func (w WireSpec) SweptAxes() []string {
	var out []string
	add := func(name string, n int) {
		if n > 0 {
			out = append(out, name)
		}
	}
	add("mode", len(w.Axes.Modes))
	add("clients", len(w.Axes.Clients))
	add("seed", len(w.Axes.Seeds))
	add("rate_kbps", len(w.Axes.Rates))
	add("adapter", len(w.Axes.Adapters))
	add("loss_pct", len(w.Axes.Loss))
	add("snr_db", len(w.Axes.SNRsDB))
	add("topology", len(w.Axes.Topologies))
	return out
}

// FingerprintFields returns one grid point's content-addressed
// identity as flat key=value components: everything that determines
// the point's Result — scenario, workload, measurement windows, the
// swept-axis set, and the point's axis values — and nothing that does
// not (the campaign display name, the grid position, worker count).
// The results layer hashes these fields together with a code-version
// salt into the memoization key (results.PointFingerprint).
func (w WireSpec) FingerprintFields(pt Point) map[string]string {
	fields := pt.AxisValues()
	fields["scenario"] = w.Scenario
	fields["workload"] = w.ResolvedWorkload()
	fields["warmup_ns"] = strconv.FormatInt(int64(w.Warmup), 10)
	fields["measure_ns"] = strconv.FormatInt(int64(w.Measure), 10)
	fields["duration_ns"] = strconv.FormatInt(int64(w.Duration), 10)
	swept := ""
	for i, a := range w.SweptAxes() {
		if i > 0 {
			swept += ","
		}
		swept += a
	}
	fields["swept"] = swept
	return fields
}

// RunPoints simulates just the listed grid points of the spec — the
// shard-extraction primitive the distributed layer leases to workers.
// Points run serially in the given index order (shard-level
// parallelism comes from running many workers); each returned row is
// identical to the corresponding row of a full Run, because every grid
// point is an independent simulation. The context is honored between
// points: cancellation returns the rows completed so far with ctx's
// error, never a half-simulated point.
func RunPoints(ctx context.Context, s Spec, indexes []int) (Results, error) {
	s = s.withDefaults()
	pts := s.Points()
	out := make(Results, 0, len(indexes))
	for _, i := range indexes {
		if i < 0 || i >= len(pts) {
			return out, fmt.Errorf("campaign: point index %d out of range [0,%d)", i, len(pts))
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out = append(out, s.runPoint(pts[i]))
	}
	return out, nil
}
