// Command hacksim runs a single simulated scenario and prints goodput
// and MAC statistics — the quickest way to poke at the system.
// Scenarios come from the named registry (-scenario, -list) or are
// composed from flags via the builder options.
//
// Examples:
//
//	hacksim                                  # stock TCP, 802.11n, 1 client
//	hacksim -list                            # enumerate named scenarios
//	hacksim -scenario ht150-moredata -clients 4
//	hacksim -mode more-data -clients 4
//	hacksim -phy a54 -mode more-data -sora   # the SoRa testbed model
//	hacksim -mcs 3 -snr 18                   # lossy mid-rate link
//	hacksim -scenario ht150-moredata -adapter minstrel -snr 25
//	                                         # rate adaptation on a noisy link
//	hacksim -adapter minstrel -snr 18 -rate-stats
//	                                         # print the learned per-rate table
//	hacksim -scenario ht150-upload -mode more-data
//	                                         # registered upload workload
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tcphack"
)

func main() {
	scenarioFlag := flag.String("scenario", "", "named scenario from the registry (see -list)")
	list := flag.Bool("list", false, "list named scenarios and exit")
	modeFlag := flag.String("mode", "off", "HACK mode: off, more-data, opportunistic, timer")
	adapter := flag.String("adapter", "", "rate adapter: fixed, fixed:<rate>, ideal, argmax, minstrel")
	phyFlag := flag.String("phy", "ht", "PHY: ht (802.11n) or a54 (802.11a @54)")
	mcs := flag.Int("mcs", 7, "HT MCS index 0-7 (802.11n)")
	clients := flag.Int("clients", 1, "number of downloading clients")
	dur := flag.Duration("dur", 5*time.Second, "simulated duration")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup before the measurement window")
	snr := flag.Float64("snr", 0, "fixed SNR in dB (0 = lossless channel)")
	loss := flag.Float64("loss", 0, "uniform per-frame loss probability (0 = lossless)")
	sora := flag.Bool("sora", false, "apply the SoRa testbed preset: 802.11a at 54 Mbps, late LL ACKs, AP-resident sender")
	seed := flag.Int64("seed", 1, "RNG seed")
	upload := flag.Bool("upload", false, "upload instead of download")
	rateStats := flag.Bool("rate-stats", false, "print the Minstrel adapters' learned per-rate statistics")
	traceFlag := flag.String("trace", "", "write a JSONL flight-recorder trace to this file")
	airtime := flag.Bool("airtime", false, "print the per-station airtime ledger")
	validateTrace := flag.String("validate-trace", "", "schema-check a JSONL trace file and exit")
	flag.Parse()

	if *validateTrace != "" {
		f, err := os.Open(*validateTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		count, err := tcphack.ValidateTraceJSONL(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *validateTrace, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d events, schema OK\n", *validateTrace, count)
		return
	}

	if *list {
		for _, e := range tcphack.Scenarios() {
			fmt.Printf("%-22s %s\n", e.Name, e.Desc)
		}
		return
	}

	mode, err := tcphack.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := tcphack.ParseRateAdapter(*adapter); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Compose the scenario: a named registry entry or a flag-built
	// preset, specialized by the per-axis options.
	var opts []tcphack.ScenarioOption
	if *scenarioFlag == "" {
		switch *phyFlag {
		case "ht":
			opts = append(opts, tcphack.With80211n(), tcphack.WithRate(tcphack.HTRate(*mcs, 1)))
		case "a54":
			opts = append(opts, tcphack.WithRate(tcphack.Rate54Mbps),
				tcphack.WithWire(500_000, tcphack.Millisecond))
		default:
			fmt.Fprintf(os.Stderr, "unknown phy %q\n", *phyFlag)
			os.Exit(2)
		}
		opts = append(opts, tcphack.WithMode(mode))
	}
	if *scenarioFlag == "" {
		opts = append(opts, tcphack.WithClients(*clients), tcphack.WithSeed(*seed),
			tcphack.WithRateAdapter(*adapter))
	} else {
		// A named scenario keeps its registered values; only flags the
		// user explicitly set override it (-phy conflicts with the name
		// itself, which picks the PHY).
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mode":
				opts = append(opts, tcphack.WithMode(mode))
			case "adapter":
				opts = append(opts, tcphack.WithRateAdapter(*adapter))
			case "mcs":
				opts = append(opts, tcphack.WithRate(tcphack.HTRate(*mcs, 1)))
			case "clients":
				opts = append(opts, tcphack.WithClients(*clients))
			case "seed":
				opts = append(opts, tcphack.WithSeed(*seed))
			case "phy":
				fmt.Fprintln(os.Stderr, "-phy cannot be combined with -scenario (the name picks the PHY)")
				os.Exit(2)
			}
		})
	}
	if *sora {
		opts = append(opts, tcphack.WithSoRa())
	}
	if *snr != 0 {
		opts = append(opts, tcphack.WithSNR(*snr))
	}
	if *loss != 0 {
		opts = append(opts, tcphack.WithUniformLoss(*loss))
	}

	var cfg tcphack.NetworkConfig
	if *scenarioFlag != "" {
		var ok bool
		cfg, ok = tcphack.LookupScenario(*scenarioFlag, opts...)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q; -list shows the registry\n", *scenarioFlag)
			os.Exit(2)
		}
		mode = cfg.Mode
	} else {
		cfg = tcphack.NewScenario(opts...)
	}

	// Traffic: the -upload flag forces uploads; otherwise a named
	// scenario's registered workload kind applies ("" = download).
	workloadKind := tcphack.ScenarioWorkload(*scenarioFlag)
	if *upload {
		workloadKind = "upload"
	}
	startFlows, err := tcphack.NamedCampaignWorkload(workloadKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Observability: a JSONL trace writer on every layer and/or the
	// airtime ledger on the medium, whose events are all it reads.
	// Attaching them cannot perturb the run.
	var tw *tcphack.TraceWriter
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tw = tcphack.NewTraceWriter(f)
		cfg.Tracer = tw
	}

	n := tcphack.NewNetwork(cfg)
	var ledger *tcphack.AirtimeLedger
	if *airtime {
		ledger = tcphack.NewAirtimeLedger()
		n.Medium.Tracer = tcphack.TraceMulti(n.Medium.Tracer, ledger)
	}
	startFlows(n, tcphack.CampaignPoint{Clients: cfg.Clients})
	n.Run(tcphack.Duration(*warmup))
	for _, f := range n.Flows {
		f.Goodput.MarkWindow(n.Sched.Now())
	}
	n.Run(tcphack.Duration(*warmup) + tcphack.Duration(*dur))

	adapterName := cfg.RateAdapter
	if adapterName == "" {
		adapterName = "fixed"
	}
	fmt.Printf("%v  mode=%v  adapter=%s  %d client(s)  window=%v\n",
		cfg.DataRate, mode, adapterName, len(n.Clients), *dur)
	var total float64
	for i, f := range n.Flows {
		mbps := f.Goodput.WindowMbps(n.Sched.Now())
		total += mbps
		dir := "down"
		if f.Upload {
			dir = "up"
		}
		fmt.Printf("  flow %d (client %d, %-4s): %7.2f Mbps\n", i, f.Client, dir, mbps)
	}
	fmt.Printf("  aggregate:               %7.2f Mbps\n\n", total)

	ap := n.AP.MAC.Stats
	fmt.Printf("AP MAC: frames=%d mpdus=%d delivered=%d retries=%d expired=%d timeouts=%d bars=%d qdrops=%d\n",
		ap.FramesSent, ap.MPDUsSent, ap.MPDUsDelivered, ap.Retries, ap.Expired, ap.AckTimeouts, ap.BARsSent, ap.QueueDrops)
	fmt.Printf("medium: tx=%d collided=%d busy=%.1f%%\n",
		n.Medium.TxCount, n.Medium.CollidedTx,
		100*float64(n.Medium.AirtimeBusy)/float64(n.Sched.Now()))
	if mode != tcphack.ModeOff {
		var acct = n.Clients[0].Driver.Acct
		who := "client0"
		if workloadKind == "upload" {
			acct = n.AP.Driver.Acct
			who = "AP"
		}
		fmt.Printf("HACK (%s): native=%d compressed=%d (%.1f B/ACK, ratio %.1f) decomp_failures=%d dups=%d\n",
			who, acct.NativeAcks, acct.CompressedAcks,
			float64(acct.CompressedBytes)/float64(max(acct.CompressedAcks, 1)),
			acct.CompressionRatio(),
			n.DecompFailures(), n.AP.Driver.DecompDuplicates+n.Clients[0].Driver.DecompDuplicates)
	}

	if *rateStats {
		printRateStats(n)
	}

	if ledger != nil {
		printAirtime(ledger.Snapshot(n.Sched.Now()))
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace: %d events -> %s\n", tw.Count(), *traceFlag)
	}
}

// printAirtime renders the airtime ledger as per-station percentages
// of elapsed simulated time, and exits nonzero if the ledger failed
// to account for every nanosecond (a bug, never expected).
func printAirtime(rep tcphack.AirtimeReport) {
	pct := func(d tcphack.Duration) float64 {
		if rep.Elapsed == 0 {
			return 0
		}
		return 100 * float64(d) / float64(rep.Elapsed)
	}
	fmt.Printf("\nairtime (elapsed %.3fs, busy %.1f%%, idle %.1f%%, efficiency %.3f):\n",
		float64(rep.Elapsed)/float64(tcphack.Second), pct(rep.Busy()), pct(rep.Idle),
		rep.Efficiency())
	fmt.Printf("  %-6s %8s %9s %7s %8s %7s\n", "sta", "data", "wifi-ack", "bar", "tcp-ack", "retry")
	row := func(name string, b tcphack.AirtimeBuckets) {
		fmt.Printf("  %-6s %7.2f%% %8.2f%% %6.2f%% %7.2f%% %6.2f%%\n",
			name, pct(b.Data), pct(b.WifiAck), pct(b.BAR), pct(b.TCPAck), pct(b.Retry))
	}
	row("all", rep.Total)
	for _, s := range rep.Stations {
		row(fmt.Sprintf("%d", s.Station), s.Buckets)
	}
	if !rep.Conserved() {
		fmt.Fprintf(os.Stderr, "airtime: conservation violated: busy %d + idle %d != elapsed %d\n",
			rep.Busy(), rep.Idle, rep.Elapsed)
		os.Exit(1)
	}
}

// printRateStats dumps every Minstrel adapter's learned per-rate table
// (mac.Minstrel.Snapshot): the AP's view toward each client and each
// client's view toward the AP, when those stations run Minstrel and
// have learned anything.
func printRateStats(n *tcphack.Network) {
	printed := false
	dump := func(who string, stats []tcphack.RateStats) {
		if stats == nil {
			return
		}
		printed = true
		fmt.Printf("\nminstrel %s:\n", who)
		fmt.Printf("  %-14s %8s %12s %10s %10s %5s\n", "rate", "prob", "ewma tput", "attempts", "success", "best")
		for _, s := range stats {
			best := ""
			if s.Best {
				best = "*"
			}
			fmt.Printf("  %-14v %8.3f %10.1f M %10d %10d %5s\n",
				s.Rate, s.Prob, s.TputKbps/1000, s.Attempts, s.Successes, best)
		}
	}
	for ci := range n.Clients {
		dump(fmt.Sprintf("AP -> client %d", ci), n.APMinstrelStats(ci))
		dump(fmt.Sprintf("client %d -> AP", ci), n.ClientMinstrelStats(ci))
	}
	if !printed {
		fmt.Println("\nminstrel: no per-rate statistics (no station runs the minstrel adapter, or no frames flowed)")
	}
}
