// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator the way its users do — a paper sweep through the
// campaign service, and two long-lived networks built with node.New —
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (tracing off);
// with --trace 1 the run measures the same workload untraced, then
// again with spans, a CPU profile and an airtime ledger, and reports
// the per-layer metrics. README.md in this directory lists every
// metric, workload and known defect.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// options are the command-line arguments every workload receives.
type options struct {
	seed    int64
	seconds int
	trace   bool
	// outDir receives span files, CPU profiles and the digest ledger.
	outDir string
}

// outcome is what one workload run produced: its output checks, its
// flows attempted and failed, its metrics, and a digest of every
// simulated count, which must repeat exactly for a fixed seed.
type outcome struct {
	checks    []check
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	digest    string
}

// check is one verified property of a run's output.
type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"paper-sweep":   runPaperSweep,
	"dense-scalar":  runDenseScalar,
	"spatial-floor": runSpatialFloor,
}

// endToEnd are the gated metrics, printed with --trace 0.
var endToEnd = []metricDef{
	{"sim_s_per_s", "s/s"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"allocs_per_sim_s", "allocs/s"},
}

// perLayer are the traced run's metrics, printed with --trace 1 for
// every workload; a layer a workload does not run reports 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_pct", "%"},
	{"channel.tx", "count"},
	{"channel.collided_share", "ratio"},
	{"channel.busy_pct", "%"},
	{"channel.airtime_efficiency", "ratio"},
	{"channel.cpu_pct", "%"},
	{"mac.mpdus_sent", "count"},
	{"mac.delivered_ratio", "ratio"},
	{"mac.retries", "count"},
	{"mac.queue_drops", "count"},
	{"mac.cpu_pct", "%"},
	{"hack.compressed_share", "ratio"},
	{"hack.bytes_per_ack", "B"},
	{"hack.resyncs", "count"},
	{"rohc.decomp_failures", "count"},
	{"hack.cpu_pct", "%"},
	{"rohc.cpu_pct", "%"},
	{"tcp.goodput_mbps", "Mbps"},
	{"tcp.jain_fairness", "ratio"},
	{"tcp.retransmits", "count"},
	{"tcp.cpu_pct", "%"},
	{"packet.cpu_pct", "%"},
	{"node.build_s", "s"},
	{"node.goodput_mbps", "Mbps"},
	{"node.silent_clients", "count"},
	{"node.cpu_pct", "%"},
	{"stats.cpu_pct", "%"},
	{"campaign.point_s.p50", "s"},
	{"campaign.point_s.max", "s"},
	{"campaign.point_s.count", "count"},
	{"campaign.cpu_pct", "%"},
	{"results.aggregate_s", "s"},
	{"results.cpu_pct", "%"},
	{"dist.lease_ms.p50", "ms"},
	{"dist.lease_ms.tail", "ms"},
	{"dist.lease_ms.count", "count"},
	{"dist.stream_ms.p50", "ms"},
	{"dist.stream_ms.tail", "ms"},
	{"dist.stream_ms.count", "count"},
	{"dist.complete_ms.p50", "ms"},
	{"dist.complete_ms.tail", "ms"},
	{"dist.complete_ms.count", "count"},
	{"dist.status_ms.p50", "ms"},
	{"dist.status_ms.tail", "ms"},
	{"dist.status_ms.count", "count"},
	{"dist.retries", "count"},
	{"dist.store_get_us", "us"},
	{"dist.store_put_us", "us"},
	{"dist.worker_idle_s", "s"},
	{"dist.memo_s", "s"},
	{"dist.cached_share", "ratio"},
	{"dist.cpu_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.cpu_pct", "%"},
	{"gc.allocs_per_event", "count"},
	{"gc.bytes_per_event", "B"},
	{"gc.cycles", "count"},
	{"gc.cpu_pct", "%"},
	{"mem.heap_live_mb", "MB"},
	{"other.cpu_pct", "%"},
}

type metricDef struct{ name, unit string }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: paper-sweep, dense-scalar or spatial-floor")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "host seconds of work to measure (sizes the simulated work)")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want paper-sweep, dense-scalar or spatial-floor)", *workload)
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		return fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *traced == 1,
		outDir: filepath.Join(filepath.Dir(exe), "perfbench-out")}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}

	out, err := runner(opt)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if err := checkDigest(out, opt, exe, *workload); err != nil {
		return err
	}

	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricOut{}}
	for _, c := range out.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			res.Correct = false
		}
		fmt.Fprintf(os.Stderr, "check %s %-22s %s\n", status, c.name, c.detail)
	}
	defs, values := endToEnd, out.e2e
	if opt.trace {
		defs, values = perLayer, out.layer
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricOut{v, d.unit}
		fmt.Fprintf(os.Stderr, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkDigest compares the run's count digest with the one an earlier
// run of the same binary, workload, seed and size recorded, and records
// it when none exists: every simulated count must repeat exactly. The
// traced and untraced runs share a record, since tracing changes no
// simulated result.
func checkDigest(out *outcome, opt options, exe, workload string) error {
	bin, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, bin)
	bin.Close()
	if err != nil {
		return err
	}
	dir := filepath.Join(opt.outDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	key := fmt.Sprintf("%s-%s-seed%d-%ds", hex.EncodeToString(h.Sum(nil))[:16], workload, opt.seed, opt.seconds)
	path := filepath.Join(dir, key)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		out.check("digest-repeats", string(prev) == out.digest,
			"count digest %.16s vs earlier run's %.16s", out.digest, prev)
		return nil
	case errors.Is(err, os.ErrNotExist):
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(out.digest), 0o644); err != nil {
			return err
		}
		out.check("digest-repeats", true, "count digest %.16s recorded (first run of this seed)", out.digest)
		return os.Rename(tmp, path)
	default:
		return err
	}
}

// digester accumulates a canonical text form of simulated counts.
type digester struct{ b strings.Builder }

func (d *digester) add(name string, vals ...float64) {
	d.b.WriteString(name)
	for _, v := range vals {
		d.b.WriteByte(' ')
		d.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	d.b.WriteByte('\n')
}

func (d *digester) sum() string {
	s := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(s[:])
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 {
	lo := math.Inf(1)
	for _, x := range xs {
		lo = math.Min(lo, x)
	}
	return lo
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	hi := 0.0
	for _, x := range xs {
		hi = math.Max(hi, x)
	}
	return hi
}

// tail returns the highest of the 90th, 99th and 99.9th percentiles
// that has at least ten samples beyond it, or the median when fewer
// than twenty samples exist (the median is then the highest supported
// percentile). The percentile is the nearest-rank value.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	best := median(s)
	for _, perMille := range []int{900, 990, 999} {
		rank := (perMille*len(s) + 999) / 1000
		if len(s)-rank >= 10 {
			best = s[rank-1]
		}
	}
	return best
}

// jain is Jain's fairness index of xs: 1 when all are equal, 1/n when
// one takes everything, 0 when all are zero.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
