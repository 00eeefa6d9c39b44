// Package campaign runs grids of simulations in parallel. A Spec
// names a base scenario configuration and the axes to sweep, and Run
// executes the cross-product on a bounded worker pool, one independent
// deterministic simulation per grid point, producing one structured
// Result row per point.
//
// # Axis semantics
//
// Axes sweep HACK modes × client counts × seeds × PHY rates × rate
// adapters × uniform loss × SNR. An empty axis is not swept: the base
// configuration's value applies and the Point field reports it. Swept
// axes override the base per point with the same semantics as the
// corresponding scenario option: Rates releases a pinned LL ACK rate
// to the 802.11 control-response rules (scenario.WithRate), Adapters
// takes scenario.WithRateAdapter's vocabulary, and the error-model
// axes (Loss, SNRsDB) compose with each other and with the base model
// as independent loss processes. Points enumerates the grid in a fixed
// nesting order — modes, clients, rates, adapters, loss, SNR, seeds —
// with seeds innermost so repetitions of one cell are adjacent.
//
// # Determinism contract
//
// Parallel and serial executions yield row-for-row identical output.
// This holds because every grid point is a fully independent
// simulation: its own scheduler seeded from the point, its own forked
// RNG streams (medium noise, MAC backoffs, Minstrel probe schedules),
// and no shared mutable state between workers. The base configuration
// is only ever read, and every network uses its error model as given,
// so anything it references must be safe for concurrent read. Results
// are written into a pre-sized slice at the point's Index, so worker
// scheduling cannot reorder rows.
//
// # Hooks
//
// Hooks cover the workloads the paper's evaluation needs: Build
// replaces network construction (custom error models, per-link loss),
// Workload replaces traffic generation (uploads, UDP saturation,
// bounded transfers), Collect extracts extra metrics into the row, and
// Skip prunes hopeless grid points without running them. WriteJSON and
// WriteCSV emit the rows for downstream tooling.
package campaign
