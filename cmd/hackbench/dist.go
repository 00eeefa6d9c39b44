// Distributed-campaign modes: -serve runs the campaign-as-a-service
// daemon, -worker a shard worker, -submit posts the -sweep flags as a
// job, -status inspects jobs/metrics, -store-gc purges stale
// memoization entries, and -dry-run prints the planned grid with
// per-point fingerprints and expected memoization hits without
// simulating. All long-running modes drain gracefully on
// SIGINT/SIGTERM: the daemon stops accepting requests and flushes
// in-flight completions; a worker finishes and delivers the shard it
// holds before exiting — a second SIGINT hard-aborts the worker (the
// streamed points are already checkpointed on the server, so recovery
// costs only the unstreamed remainder of the shard).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcphack"
)

// runServe runs the daemon until SIGINT/SIGTERM, persisting jobs and
// completed rows under stateDir (memory-only when empty).
func runServe(addr, stateDir string, leaseTTL time.Duration, shardSize int) (int, error) {
	srv, err := tcphack.NewDistServer(tcphack.DistServerConfig{
		StateDir:  stateDir,
		LeaseTTL:  leaseTTL,
		ShardSize: shardSize,
	})
	if err != nil {
		return 0, err
	}
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Lease expiry is otherwise evaluated lazily on API traffic; the
	// sweeper keeps re-queues timely when every worker has vanished.
	go func() {
		t := time.NewTicker(leaseTTL)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				srv.Jobs()
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "hackbench daemon listening on %s (state %q, lease %v)\n",
		addr, stateDir, leaseTTL)
	select {
	case err := <-errc:
		return 0, err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "hackbench daemon draining...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return 0, err
	}
	return 0, nil
}

// runWorker runs the shard-pulling loop. The first SIGINT/SIGTERM
// drains gracefully — the in-flight shard is finished and delivered; a
// second signal hard-aborts (the SIGKILL path the chaos tests
// exercise): the in-flight point is abandoned, the lease expires, and
// another worker re-simulates only the points this one had not yet
// streamed.
func runWorker(url, name string, poll time.Duration) (int, error) {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	kill := make(chan struct{})
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "worker: draining — delivering the shard in flight (^C again to abort it)")
			cancel()
		case <-done:
			return
		}
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "worker: hard abort — abandoning the shard to lease expiry")
			close(kill)
		case <-done:
		}
	}()

	retry := tcphack.DistRetryPolicy{
		Seed: name,
		OnRetry: func(path string, attempt int, err error) {
			fmt.Fprintf(os.Stderr, "worker %s: retrying %s (attempt %d failed: %v)\n", name, path, attempt, err)
		},
	}
	w := &tcphack.DistWorker{
		Client: tcphack.DistClient{BaseURL: url, Retry: retry},
		Name:   name,
		Poll:   poll,
		Kill:   kill,
		OnShard: func(grant tcphack.DistLeaseGrant, dup bool) {
			note := ""
			if dup {
				note = " (duplicate; another delivery won)"
			}
			fmt.Fprintf(os.Stderr, "worker %s: job %s shard %d done, %d point(s)%s\n",
				name, grant.Job, grant.Shard, len(grant.Indexes), note)
		},
		OnAbandon: func(grant tcphack.DistLeaseGrant, err error) {
			fmt.Fprintf(os.Stderr, "worker %s: abandoning job %s shard %d to lease expiry: %v\n",
				name, grant.Job, grant.Shard, err)
		},
	}
	fmt.Fprintf(os.Stderr, "hackbench worker %s pulling from %s\n", name, url)
	if err := w.Run(ctx); err != nil {
		return 0, err
	}
	return 0, nil
}

// runStoreGC purges (or, dry-run, counts) memoization entries a -state
// store can never serve again: entries written by another code version
// — the version salts every fingerprint, so no current plan probes
// them — plus quarantined corrupt files.
func runStoreGC(stateDir string, dryRun bool) (int, error) {
	if stateDir == "" {
		return 0, fmt.Errorf("-store-gc needs -state <dir>")
	}
	dir := filepath.Join(stateDir, "cache")
	n, err := tcphack.PurgeDistStore(dir, tcphack.SimCodeVersion, dryRun)
	if err != nil {
		return 0, err
	}
	verb := "purged"
	if dryRun {
		verb = "would purge"
	}
	fmt.Printf("%s %s stale entr(ies) from %s (keeping code version %s)\n",
		verb, groupInt(n), dir, tcphack.SimCodeVersion)
	return 0, nil
}

// runStatus prints a job's status ("all" lists every job, "metrics"
// prints the metrics snapshot) as indented JSON.
func runStatus(server, target string) (int, error) {
	if server == "" {
		return 0, fmt.Errorf("-status needs -server <url>")
	}
	c := tcphack.DistClient{BaseURL: server}
	var v any
	var err error
	switch target {
	case "all":
		v, err = c.Jobs()
	case "metrics":
		v, err = c.Metrics()
	default:
		v, err = c.Status(target)
	}
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return 0, enc.Encode(v)
}

// runSubmit posts the sweep as a job; with wait it polls to
// completion, fetches the merged rows, and feeds them through the same
// emit/baseline path a local sweep uses — output is byte-identical.
// minCached > 0 additionally gates on the memoization hit fraction
// (the repeated-sweep CI assertion).
func runSubmit(sw sweepConfig, o tcphack.ExperimentOptions, server string,
	shardSize int, wait bool, minCached float64) (int, error) {
	if server == "" {
		return 0, fmt.Errorf("-submit needs -server <url>")
	}
	spec, _, err := wireFromSweep(sw, o)
	if err != nil {
		return 0, err
	}
	c := tcphack.DistClient{BaseURL: server}
	st, err := c.Submit(spec, shardSize)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "job %s submitted: %s point(s), %s cached, %s shard(s)\n",
		st.ID, groupInt(st.TotalPoints), groupInt(st.CachedPoints), groupInt(st.ShardsTotal))
	if !wait {
		fmt.Println(st.ID)
		return 0, nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if st, err = c.WaitDone(ctx, st.ID, 0); err != nil {
		return 0, err
	}
	rows, err := c.Rows(st.ID)
	if err != nil {
		return 0, err
	}
	code, err := emitAndCompare(os.Stdout, sw, rows)
	if err != nil {
		return code, err
	}
	if minCached > 0 {
		frac := float64(st.CachedPoints) / float64(st.TotalPoints)
		if frac < minCached {
			fmt.Fprintf(os.Stderr, "memoization gate: %d/%d points cached (%.0f%%), want ≥ %.0f%%\n",
				st.CachedPoints, st.TotalPoints, frac*100, minCached*100)
			return 1, nil
		}
		fmt.Fprintf(os.Stderr, "memoization gate: %d/%d points cached (%.0f%%) — ok\n",
			st.CachedPoints, st.TotalPoints, frac*100)
	}
	return code, nil
}

// runDryRun prints the planned grid — per-point fingerprints and
// expected memoization hits against the -state store — without
// simulating anything.
func runDryRun(sw sweepConfig, o tcphack.ExperimentOptions, stateDir string, shardSize int) (int, error) {
	spec, _, err := wireFromSweep(sw, o)
	if err != nil {
		return 0, err
	}
	var store tcphack.DistStore
	if stateDir != "" {
		if store, err = tcphack.NewDistDirStore(filepath.Join(stateDir, "cache")); err != nil {
			return 0, err
		}
	}
	plan, err := tcphack.NewDistPlan(spec, store, tcphack.SimCodeVersion, shardSize)
	if err != nil {
		return 0, err
	}
	fmt.Printf("campaign %s: %s point(s), %s shard(s), salt %s\n",
		spec.DisplayName(), groupInt(len(plan.Points)), groupInt(len(plan.Shards)), tcphack.SimCodeVersion)
	fmt.Printf("%5s %-14s %8s %6s %10s %-10s %7s %6s %-16s %s\n",
		"index", "mode", "clients", "seed", "rate_kbps", "adapter", "loss%", "snr", "fingerprint", "cached")
	for _, pp := range plan.Points {
		av := pp.Point.AxisValues()
		cached := ""
		if pp.Cached {
			cached = "hit"
		}
		fmt.Printf("%5d %-14s %8s %6s %10s %-10s %7s %6s %-16s %s\n",
			pp.Index, av["mode"], av["clients"], av["seed"], av["rate_kbps"],
			av["adapter"], av["loss_pct"], av["snr_db"], pp.Fingerprint, cached)
	}
	fmt.Printf("expected cache hits: %s/%s", groupInt(plan.Cached), groupInt(len(plan.Points)))
	if len(plan.Points) > 0 {
		fmt.Printf(" (%.0f%%)", 100*float64(plan.Cached)/float64(len(plan.Points)))
	}
	fmt.Println()
	return 0, nil
}

// wireFromSweep is the one place the -sweep flag set becomes a
// campaign: it returns the wire-form spec that -submit and -dry-run
// send, and that spec materialized, which a local sweep runs. It
// rejects an unknown -format here, before anything is simulated or
// submitted.
func wireFromSweep(sw sweepConfig, o tcphack.ExperimentOptions) (tcphack.WireCampaign, tcphack.Campaign, error) {
	w := tcphack.WireCampaign{
		Scenario: sw.scenario,
		Axes: tcphack.WireCampaignAxes{
			Modes:      splitCSV(sw.modes),
			Rates:      splitCSV(sw.rates),
			Adapters:   splitCSV(sw.adapters),
			Topologies: splitCSV(sw.topologies),
			Seeds:      tcphack.CampaignSeeds(o.Seed, o.Runs),
		},
		Warmup:  o.Warmup,
		Measure: o.Measure,
	}
	switch sw.format {
	case "text", "csv", "json":
	default:
		return w, tcphack.Campaign{}, fmt.Errorf("unknown format %q (want text, csv, or json)", sw.format)
	}
	for _, s := range splitCSV(sw.clients) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return w, tcphack.Campaign{}, fmt.Errorf("bad client count %q", s)
		}
		w.Axes.Clients = append(w.Axes.Clients, n)
	}
	for _, s := range splitCSV(sw.loss) {
		p, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return w, tcphack.Campaign{}, fmt.Errorf("bad loss probability %q", s)
		}
		w.Axes.Loss = append(w.Axes.Loss, p)
	}
	spec, err := w.Spec()
	return w, spec, err
}

// splitCSV splits a comma-separated flag into trimmed fields ("" → no
// fields).
func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(f))
	}
	return out
}
