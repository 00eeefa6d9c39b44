// Command hackbench regenerates the paper's tables and figures as
// text, running each experiment's scenario grid as a parallel
// campaign, and runs ad-hoc sweeps over any named scenario with
// CSV/JSON output. With no flags it runs every figure and table at
// the default (quick) durations; -measure/-runs scale up toward the
// paper's full methodology.
//
// Usage:
//
//	hackbench                    # everything, quick
//	hackbench -fig 10            # one figure
//	hackbench -table 2           # one table
//	hackbench -xval              # §4.2 cross-validation
//	hackbench -measure 10s -runs 5 -fig 10
//	hackbench -workers 4 -fig 11 # bound the worker pool
//
//	# ad-hoc campaign: sweep a named scenario, emit structured rows
//	hackbench -sweep ht150-stock -sweep-modes off,more-data \
//	    -sweep-clients 1,2,4,10 -sweep-adapters fixed,ideal,minstrel \
//	    -runs 3 -format csv
//
//	# profile the hot path (reproduces the PR 4 optimization workflow):
//	hackbench -sweep ht150-stock -sweep-modes off,more-data -runs 2 \
//	    -workers 1 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
//
//	# persist a sweep's aggregated statistics, then detect regressions:
//	hackbench -sweep sora-stock -sweep-modes off,more-data -runs 3 \
//	    -save-baseline baseline.json
//	hackbench -sweep sora-stock -sweep-modes off,more-data -runs 3 \
//	    -baseline baseline.json          # exits 1 on regression
//
//	# spatial PHY: sweep registered topologies as a campaign axis
//	hackbench -sweep ht150-stock -sweep-modes off,more-data \
//	    -sweep-topologies 2bss-overlap,2bss-hidden -airtime
//
// The comparison aggregates rows with group-by (swept axes minus the
// seed by default; -groupby overrides) and flags any group whose
// goodput, retries, ROHC failures, or airtime moved in its worse
// direction beyond the per-metric tolerance (-tol adjusts).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"tcphack"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 1a, 1b, 9, 10, 11, 12, loss (empty = all)")
	table := flag.Int("table", 0, "table to regenerate: 1, 2, 3 (0 = all)")
	xval := flag.Bool("xval", false, "run only the §4.2 cross-validation")
	measure := flag.Duration("measure", 3*time.Second, "steady-state measurement window (simulated)")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup before measurement (simulated)")
	runs := flag.Int("runs", 1, "repetitions to average (paper used 5)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS, 1 = serial)")
	sweep := flag.String("sweep", "", "run an ad-hoc campaign over this named scenario (see hacksim -list)")
	sweepModes := flag.String("sweep-modes", "", "comma-separated HACK modes to sweep (off,more-data,opportunistic,timer)")
	sweepClients := flag.String("sweep-clients", "", "comma-separated client counts to sweep")
	sweepLoss := flag.String("sweep-loss", "", "comma-separated uniform loss probabilities to sweep")
	sweepAdapters := flag.String("sweep-adapters", "", "comma-separated rate adapters to sweep (fixed, fixed:<rate>, ideal, argmax, minstrel)")
	sweepRates := flag.String("sweep-rates", "", "comma-separated PHY rates to sweep (a6..a54, mcs0..mcs7, mcs<i>x<streams>)")
	sweepTopologies := flag.String("sweep-topologies", "", "comma-separated registered topology names to sweep ("+strings.Join(tcphack.TopologyNames(), ", ")+")")
	fig11Method := flag.String("fig11-method", "ideal", "Figure 11 rate adapter: ideal or minstrel (one simulation per SNR)")
	format := flag.String("format", "text", "sweep output: text, csv, json")
	saveBaseline := flag.String("save-baseline", "", "aggregate the sweep and persist it as a baseline JSON file")
	baseline := flag.String("baseline", "", "compare the sweep against this baseline file; exit 1 on regression")
	groupBy := flag.String("groupby", "", "comma-separated axis columns to group the aggregation by (default: swept axes minus seed; with -baseline: the baseline's grouping)")
	tolFlag := flag.String("tol", "", "per-metric relative-tolerance overrides for -baseline, e.g. aggregate_mbps=0.10,retries=0.25")
	progress := flag.Bool("progress", false, "report sweep progress (rows completed / total) on stderr")
	traceRun := flag.Bool("trace", false, "with -sweep: write one JSONL flight-recorder trace per grid point (see -trace-dir)")
	traceDir := flag.String("trace-dir", "traces", "with -trace: directory for the per-point JSONL traces")
	airtime := flag.Bool("airtime", false, "with -sweep: attach the airtime ledger and emit airtime_*_pct / airtime_efficiency extra columns")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken at exit to this file (go tool pprof)")
	serve := flag.String("serve", "", "run the campaign daemon on this address (e.g. 127.0.0.1:8077)")
	stateDir := flag.String("state", "", "with -serve: jobs + memoization directory (empty = in-memory); with -dry-run: the store to probe for expected hits")
	leaseTTL := flag.Duration("lease", 30*time.Second, "with -serve: shard lease TTL before an unheartbeated shard is re-queued")
	shardSize := flag.Int("shard", 0, "grid points per distributed shard (0 = server default)")
	workerURL := flag.String("worker", "", "run a shard worker against this daemon URL")
	workerName := flag.String("worker-name", "", "with -worker: worker name for leases and liveness (default host-pid)")
	poll := flag.Duration("poll", 0, "with -worker: idle poll base interval, doubling with jitter up to 5s when the queue stays empty (0 = 200ms default)")
	storeGC := flag.Bool("store-gc", false, "purge -state's memoization cache of entries from other code versions and quarantined corrupt files")
	gcDryRun := flag.Bool("gc-dry-run", false, "with -store-gc: count stale entries without deleting anything")
	server := flag.String("server", "", "daemon URL for -submit and -status")
	submit := flag.Bool("submit", false, "submit the -sweep campaign to -server instead of running it locally")
	wait := flag.Bool("wait", false, "with -submit: wait for completion and emit the merged rows per -format")
	minCached := flag.Float64("min-cached", 0, "with -submit -wait: exit 1 unless at least this fraction of grid points was served from the memoization store")
	status := flag.String("status", "", "with -server: print a job's status as JSON ('all' lists every job, 'metrics' prints the daemon snapshot)")
	dryRun := flag.Bool("dry-run", false, "with -sweep: print the planned grid with per-point fingerprints and expected cache hits, without simulating")
	flag.Parse()

	// Flag values consumed deep inside the run are validated before
	// profiling starts, so no later path needs to bail out past the
	// profile flushing.
	switch *fig11Method {
	case "ideal", "minstrel":
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig11-method %q (want ideal or minstrel)\n", *fig11Method)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// os.Exit bypasses defers, so every exit path funnels through here
	// to flush the profiles.
	exit := func(code int) {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			runtime.GC() // report live + cumulative allocation accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			f.Close()
		}
		os.Exit(code)
	}

	o := tcphack.ExperimentOptions{
		Warmup:  tcphack.Duration(*warmup),
		Measure: tcphack.Duration(*measure),
		Runs:    *runs,
		Seed:    *seed,
		Workers: *workers,
	}

	// Distributed modes run before (and instead of) the local figure
	// and sweep paths; all of them funnel through exit.
	finish := func(code int, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		exit(code)
	}
	switch {
	case *serve != "":
		finish(runServe(*serve, *stateDir, *leaseTTL, *shardSize))
	case *workerURL != "":
		finish(runWorker(*workerURL, *workerName, *poll))
	case *status != "":
		finish(runStatus(*server, *status))
	case *storeGC:
		finish(runStoreGC(*stateDir, *gcDryRun))
	}

	if *sweep != "" {
		sw := sweepConfig{
			scenario: *sweep,
			modes:    *sweepModes, clients: *sweepClients, loss: *sweepLoss,
			adapters: *sweepAdapters, rates: *sweepRates,
			topologies:   *sweepTopologies,
			format:       *format,
			saveBaseline: *saveBaseline, baseline: *baseline,
			groupBy: *groupBy, tol: *tolFlag,
			progress: *progress,
			airtime:  *airtime,
		}
		if *traceRun {
			sw.traceDir = *traceDir
		}
		switch {
		case *dryRun:
			finish(runDryRun(sw, o, *stateDir, *shardSize))
		case *submit:
			// Traces are local artifacts; the wire protocol does not carry
			// tracer hooks (and must not, to keep shard results memoizable).
			if sw.traceDir != "" || sw.airtime {
				finish(2, fmt.Errorf("-trace and -airtime apply to local sweeps only, not -submit"))
			}
			finish(runSubmit(sw, o, *server, *shardSize, *wait, *minCached))
		}
		finish(runSweep(os.Stdout, sw, o))
	}

	all := *fig == "" && *table == 0 && !*xval
	did := false
	run := func(name string, want bool, f func()) {
		if !(all || want) {
			return
		}
		did = true
		fmt.Printf("==================== %s ====================\n", name)
		f()
		fmt.Println()
	}

	run("Figure 1(a): theoretical goodput, 802.11a", *fig == "1a", func() { fig1a() })
	run("Figure 1(b): theoretical goodput, 802.11n", *fig == "1b", func() { fig1b() })
	run("Figure 9 + Table 1: SoRa testbed", *fig == "9" || *table == 1, func() { fig9(o) })
	run("Table 2: ACK accounting (fixed transfer)", *table == 2, func() { table2(o) })
	run("Table 3: TCP ACK time breakdown", *table == 3, func() { table3(o) })
	run("§4.2 cross-validation (ideal vs SoRa mode)", *xval, func() { xvalRun(o) })
	run("Figure 10: multi-client 802.11n", *fig == "10", func() { fig10(o) })
	run("Figure 11: SNR sweep with rate adaptation", *fig == "11", func() { fig11(o, *fig11Method) })
	run("Figure 12: theory vs simulation", *fig == "12", func() { fig12(o) })
	run("Loss resilience: loss × mode × adapter grid", *fig == "loss", func() { lossResilience(o) })

	if !did {
		fmt.Fprintln(os.Stderr, "nothing selected; see -h")
		exit(2)
	}
	exit(0)
}

// sweepConfig carries the -sweep flag set.
type sweepConfig struct {
	scenario                                string
	modes, clients, loss, adapters, rates   string
	topologies                              string
	format, saveBaseline, baseline, groupBy string
	tol                                     string
	progress                                bool
	traceDir                                string // non-empty: one JSONL per grid point
	airtime                                 bool
}

// runSweep executes an ad-hoc campaign over a named scenario, writes
// its rows to out and optionally persists/compares its aggregated
// statistics. The campaign is the one -submit and -dry-run send
// (wireFromSweep) plus the hooks only a local run has: the worker
// pool, the airtime ledger, per-point traces and progress. The int is
// the process exit code: 0 clean, 1 when a baseline comparison found
// regressions.
func runSweep(out io.Writer, sw sweepConfig, o tcphack.ExperimentOptions) (int, error) {
	_, spec, err := wireFromSweep(sw, o)
	if err != nil {
		return 0, err
	}
	spec.Workers = o.Workers
	spec.Airtime = sw.airtime
	if sw.traceDir != "" {
		if err := os.MkdirAll(sw.traceDir, 0o755); err != nil {
			return 0, err
		}
		spec.Trace = func(pt tcphack.CampaignPoint) tcphack.Tracer {
			f, err := os.Create(filepath.Join(sw.traceDir, pointTraceName(pt)))
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				return nil
			}
			return tcphack.NewTraceWriter(f)
		}
	}
	if sw.progress {
		// Progress calls arrive serialized, once per completed row; on
		// a large grid a per-row stderr write would dominate. Batch to
		// every ≥1% of the grid (capped at 1000 rows), always printing
		// the final count.
		last, step := 0, 0
		spec.Progress = func(done, total int) {
			if step == 0 {
				if step = total / 100; step < 1 {
					step = 1
				} else if step > 1000 {
					step = 1000
				}
			}
			if done != total && done < last+step {
				return
			}
			last = done
			fmt.Fprintf(os.Stderr, "\r%s/%s rows", groupInt(done), groupInt(total))
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	return emitAndCompare(out, sw, tcphack.RunCampaign(spec))
}

// pointTraceName derives a grid point's trace filename from its axis
// values: stable across runs, unique within a sweep (the index), and
// readable enough to find the cell you want.
func pointTraceName(pt tcphack.CampaignPoint) string {
	name := fmt.Sprintf("point-%04d_%v_c%d_seed%d", pt.Index, pt.Mode, pt.Clients, pt.Seed)
	if pt.Adapter != "" {
		name += "_" + strings.ReplaceAll(pt.Adapter, ":", "-")
	}
	if pt.LossPct != 0 {
		name += fmt.Sprintf("_loss%g", pt.LossPct)
	}
	if pt.SNRdB != 0 {
		name += fmt.Sprintf("_snr%g", pt.SNRdB)
	}
	return name + ".jsonl"
}

// groupInt formats a count with comma thousands grouping (1234567 →
// "1,234,567") for the human-facing progress and planning lines.
func groupInt(n int) string {
	s := strconv.Itoa(n)
	if n < 0 || len(s) <= 3 {
		return s
	}
	var b strings.Builder
	pre := len(s) % 3
	if pre > 0 {
		b.WriteString(s[:pre])
	}
	for i := pre; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

// emitAndCompare writes a sweep's rows to out in sw.format and runs
// the baseline workflow when requested — shared by local sweeps and
// distributed -submit -wait so both emit byte-identical output.
func emitAndCompare(out io.Writer, sw sweepConfig, results tcphack.CampaignResults) (int, error) {
	switch sw.format {
	case "json":
		if err := results.WriteJSON(out); err != nil {
			return 0, err
		}
	case "csv":
		if err := results.WriteCSV(out); err != nil {
			return 0, err
		}
	default:
		fmt.Fprintf(out, "%-16s %-14s %8s %6s %-10s %9s %10s %8s %10s\n",
			"campaign", "mode", "clients", "seed", "adapter", "loss%", "Mbps", "busy%", "no-retry%")
		for _, r := range results {
			adapter := r.Adapter
			if adapter == "" {
				adapter = "fixed"
			}
			fmt.Fprintf(out, "%-16s %-14s %8d %6d %-10s %9.2f %10.2f %8.1f %10.1f\n",
				r.Campaign, r.ModeName, r.Clients, r.Seed, adapter, r.LossPct,
				r.AggregateMbps, r.AirtimeBusyPct, r.NoRetryPct)
		}
	}

	if sw.saveBaseline == "" && sw.baseline == "" {
		return 0, nil
	}
	return baselineWorkflow(out, sw, results)
}

// baselineWorkflow aggregates the sweep and persists and/or compares
// it. In text mode the comparison report follows the rows on out.
func baselineWorkflow(out io.Writer, sw sweepConfig, rs tcphack.CampaignResults) (int, error) {
	table := tcphack.NewResultsTable(rs)

	var stored *tcphack.Baseline
	if sw.baseline != "" {
		var err error
		stored, err = tcphack.LoadBaselineFile(sw.baseline)
		if err != nil {
			return 0, err
		}
	}

	// Grouping: explicit -groupby wins; otherwise adopt the stored
	// baseline's grouping (the two aggregations must agree to be
	// comparable); otherwise the swept axes minus the seed.
	var groupBy []string
	switch {
	case sw.groupBy != "":
		for _, c := range strings.Split(sw.groupBy, ",") {
			groupBy = append(groupBy, strings.TrimSpace(c))
		}
	case stored != nil:
		groupBy = stored.GroupBy
	default:
		groupBy = table.SweptAxes()
	}
	agg, err := table.Aggregate(groupBy...)
	if err != nil {
		return 0, err
	}

	if sw.saveBaseline != "" {
		if err := tcphack.SaveBaselineFile(sw.saveBaseline, tcphack.NewBaseline(agg)); err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "baseline saved to %s (%d group(s), grouped by %s)\n",
			sw.saveBaseline, len(agg.Groups), strings.Join(groupBy, ","))
	}
	if stored == nil {
		return 0, nil
	}

	tolerances, err := parseTolerances(sw.tol)
	if err != nil {
		return 0, err
	}
	cmp, err := tcphack.CompareBaseline(agg, stored, tolerances)
	if err != nil {
		return 0, err
	}
	// Text mode owns out; with machine-readable formats the rows own
	// out and the report must not corrupt them.
	report := out
	if sw.format != "text" {
		report = os.Stderr
	}
	cmp.Report(report)
	// A lost baseline group is silently vanished coverage, so the gate
	// fails on it too, not only on metric regressions.
	if !cmp.Clean() {
		return 1, nil
	}
	return 0, nil
}

// parseTolerances applies -tol's metric=rel overrides on top of the
// defaults. Metrics not in DefaultTolerances get a higher-is-worse
// tolerance (the counter convention); prefix the value with "-" to
// mean lower-is-worse (e.g. extra.upload_mbps=-0.05). Metric names are
// validated against the results schema so a typo'd override errors
// instead of silently judging the real metric at its default.
func parseTolerances(spec string) (map[string]tcphack.Tolerance, error) {
	tol := tcphack.DefaultTolerances()
	if spec == "" {
		return tol, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -tol entry %q (want metric=rel)", kv)
		}
		if !validMetricName(name) {
			return nil, fmt.Errorf("unknown -tol metric %q (want one of %s, per_client_mbps.<i>, or extra.<name>)",
				name, strings.Join(tcphack.ResultsScalarMetrics, ", "))
		}
		lowerWorse := strings.HasPrefix(val, "-")
		rel, err := strconv.ParseFloat(strings.TrimPrefix(val, "-"), 64)
		if err != nil || rel < 0 {
			return nil, fmt.Errorf("bad -tol value %q for %s", val, name)
		}
		t, exists := tol[name]
		if !exists {
			t = tcphack.Tolerance{}
			if !lowerWorse {
				t.Worse = tcphack.HigherIsWorse
			}
		}
		if lowerWorse {
			t.Worse = tcphack.LowerIsWorse
		}
		t.Rel = rel
		tol[name] = t
	}
	return tol, nil
}

func fig1a() {
	fmt.Printf("%-8s %10s %10s %10s %8s\n", "rate", "TCP", "TCP/HACK", "UDP", "gain")
	for _, r := range tcphack.Fig1a() {
		fmt.Printf("%-8v %8.1f M %8.1f M %8.1f M %+7.1f%%\n",
			r.Rate, r.TCPMbps, r.HACKMbps, r.UDPMbps, r.GainPct)
	}
	fmt.Println("paper: HACK curve above TCP at every rate; see Fig 1(a).")
}

func fig1b() {
	fmt.Printf("%-14s %6s %10s %10s %10s %8s\n", "rate", "batch", "TCP", "TCP/HACK", "UDP", "gain")
	for _, r := range tcphack.Fig1b() {
		fmt.Printf("%-14v %6d %8.1f M %8.1f M %8.1f M %+7.1f%%\n",
			r.Rate, r.BatchMPDUs, r.TCPMbps, r.HACKMbps, r.UDPMbps, r.GainPct)
	}
	fmt.Println("paper: ≈8% average gain < 100 Mbps, ≈20% at 600 Mbps.")
}

func fig9(o tcphack.ExperimentOptions) {
	cells := tcphack.Fig9(o)
	fmt.Printf("%-6s %-8s %14s %14s %12s\n", "proto", "clients", "per-client", "total Mbps", "no-retry %")
	for _, c := range cells {
		per := ""
		for i, v := range c.PerClientMbps {
			if i > 0 {
				per += "/"
			}
			per += fmt.Sprintf("%.1f", v)
		}
		fmt.Printf("%-6s %-8d %14s %14.1f %12.1f\n", c.Protocol, c.Clients, per, c.TotalMbps, c.NoRetryPct)
	}
	fmt.Println("paper Fig 9: UDP 26.5, HACK 25.0, TCP 19.4 Mbps (1 client);")
	fmt.Println("paper Tab 1: no-retry 99% UDP / 97-98% HACK / 86-88% TCP.")
}

func table2(o tcphack.ExperimentOptions) {
	rows := tcphack.Table2(o, 25<<20)
	fmt.Printf("%-18s %10s %12s %10s %12s %8s\n",
		"protocol", "ACK count", "ACK bytes", "ACKC cnt", "ACKC bytes", "ratio")
	for _, r := range rows {
		fmt.Printf("%-18s %10d %12d %10d %12d %8.1f\n",
			r.Protocol, r.NativeAcks, r.NativeAckBytes, r.CompressedAcks, r.CompressedBytes, r.CompressionRatio)
	}
	fmt.Println("paper: 9060/471120 native (TCP) vs 10 native + 9050 compressed/39478 B, ratio 12 (HACK).")
}

func table3(o tcphack.ExperimentOptions) {
	rows := tcphack.Table3(o, 25<<20)
	fmt.Printf("%-18s %12s %12s %12s %12s\n", "protocol", "TCP-ACK air", "ROHC air", "channel", "LL-ACK ovh")
	for _, r := range rows {
		b := r.Breakdown
		fmt.Printf("%-18s %10.2fms %10.2fms %10.2fms %10.2fms\n",
			r.Protocol, b.TCPAckAir.Millis(), b.ROHCAir.Millis(), b.ChannelWait.Millis(), b.LLAckOverhead.Millis())
	}
	fmt.Println("paper: TCP 70/0/1093/456 ms vs HACK 0.08/13.1/1.17/0.46 ms (25 MB).")
}

func xvalRun(o tcphack.ExperimentOptions) {
	fmt.Printf("%-8s %12s %12s %14s\n", "proto", "ideal Mbps", "SoRa Mbps", "recovered")
	for _, r := range tcphack.CrossValidation(o) {
		fmt.Printf("%-8s %12.1f %12.1f %14.1f\n", r.Protocol, r.IdealMbps, r.SoRaModeMbps, r.RecoveredMbps)
	}
	fmt.Println("paper: TCP 22.4 ideal vs 19.6 SoRa (22 recovered); HACK 28 vs 25.5 (27.7 recovered).")
}

func fig10(o tcphack.ExperimentOptions) {
	rows := tcphack.Fig10(o, nil)
	fmt.Printf("%-8s %-16s %14s %8s %10s\n", "clients", "protocol", "aggregate", "stddev", "vs TCP")
	for _, r := range rows {
		gain := ""
		if r.GainOverTCPPct != 0 {
			gain = fmt.Sprintf("%+.1f%%", r.GainOverTCPPct)
		}
		fmt.Printf("%-8d %-16s %12.1f M %8.2f %10s\n", r.Clients, r.Protocol, r.AggregateMbps, r.StdDev, gain)
	}
	fmt.Println("paper: MORE DATA HACK gains 15% (1 client) → 22% (10 clients); opportunistic ≈ stock.")
}

func fig11(o tcphack.ExperimentOptions, adapter string) {
	res := tcphack.Fig11(o, nil, nil, adapter)
	fmt.Printf("method: %s\n", res.Method)
	snrs := make([]float64, 0, len(res.EnvelopeTCP))
	for snr := range res.EnvelopeTCP {
		snrs = append(snrs, snr)
	}
	sort.Float64s(snrs)
	fmt.Printf("%-8s %14s %14s %10s\n", "SNR dB", "TCP envelope", "HACK envelope", "gain")
	for _, snr := range snrs {
		tcp, hck := res.EnvelopeTCP[snr], res.EnvelopeHACK[snr]
		gain := ""
		if tcp > 1 {
			gain = fmt.Sprintf("%+.1f%%", (hck-tcp)/tcp*100)
		}
		fmt.Printf("%-8.0f %12.1f M %12.1f M %10s\n", snr, tcp, hck, gain)
	}
	fmt.Printf("mean envelope improvement: %.1f%% (paper: 12.6%%)\n", res.MeanImprovementPct)
}

// lossResilience prints the loss-resilience grid: goodput vs uniform
// loss for stock TCP and HACK MORE-DATA under the threshold (ideal)
// and expected-goodput (argmax) oracles, with the §4.3 health counter
// per cell (must be zero everywhere).
func lossResilience(o tcphack.ExperimentOptions) {
	rows := tcphack.LossResilience(o, nil, nil)
	fmt.Printf("%8s  %-10s %-8s %14s %10s %14s %9s\n",
		"loss", "mode", "adapter", "goodput (Mbps)", "retries", "rohc failures", "air eff")
	for _, r := range rows {
		fmt.Printf("%7.1f%%  %-10v %-8s %8.2f ±%4.2f %10.0f %14.0f %9.3f\n",
			r.LossPct, r.Mode, r.Adapter, r.GoodputMbps, r.GoodputStdDev,
			r.Retries, r.DecompFailures, r.AirtimeEff)
	}
	fmt.Println("air eff: useful airtime / total busy airtime (airtime ledger; higher is better).")
}

func fig12(o tcphack.ExperimentOptions) {
	rows := tcphack.Fig12(o, nil)
	fmt.Printf("%-14s %10s %10s %10s %10s %9s %9s\n",
		"rate", "th TCP", "th HACK", "sim TCP", "sim HACK", "th gain", "sim gain")
	for _, r := range rows {
		fmt.Printf("%-14v %8.1f M %8.1f M %8.1f M %8.1f M %+8.1f%% %+8.1f%%\n",
			r.Rate, r.TheoryTCP, r.TheoryHACK, r.SimTCP, r.SimHACK, r.TheoGainPct, r.SimGainPct)
	}
	fmt.Println("paper: simulated gain (14% at 150 Mbps) exceeds the analytical 7% — HACK also removes collisions.")
}

// validMetricName accepts the results schema's metric columns: the
// fixed scalar set plus the expanded per-client and Extra namespaces.
func validMetricName(name string) bool {
	for _, m := range tcphack.ResultsScalarMetrics {
		if name == m {
			return true
		}
	}
	return strings.HasPrefix(name, "per_client_mbps.") || strings.HasPrefix(name, "extra.")
}
