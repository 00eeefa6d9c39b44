// Command bench2json converts `go test -bench` text output (read from
// stdin) into deterministic JSON on stdout, so benchmark results can
// be archived as CI artifacts and committed as points of the repo's
// performance trajectory (BENCH_<pr>.json files).
//
//	go test -run '^$' -bench BenchmarkCampaignRun -benchtime 1x -benchmem . \
//	    | go run ./cmd/bench2json > bench.json
//
// Every benchmark line becomes one entry carrying the iteration count
// and all reported metrics — the standard ns/op, B/op, allocs/op plus
// any custom b.ReportMetric units (points/s, row0_mbps, ...). Context
// lines (goos/goarch/pkg/cpu) are captured verbatim.
//
// With -compare the command gates instead of converting: it parses the
// same bench text from stdin, looks one benchmark's metric up in a
// previously archived report, and exits 1 when the current value
// regressed beyond the relative tolerance:
//
//	go test -run '^$' -bench 'BenchmarkScale$/stations=100' -benchtime 1x . \
//	    | go run ./cmd/bench2json -compare BENCH_7.json \
//	        -name 'BenchmarkScale/stations=100' \
//	        -against 'BenchmarkScaleHeap/stations=100' \
//	        -metric ns/op -rel 0.03
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the full converted output.
type Report struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	compare := flag.String("compare", "", "baseline report JSON (a previous bench2json output) to gate against instead of converting")
	name := flag.String("name", "", "with -compare: benchmark name in the stdin bench text (sub-bench path, -N CPU suffix stripped)")
	against := flag.String("against", "", "with -compare: benchmark name in the baseline report (default: -name)")
	metric := flag.String("metric", "ns/event", "with -compare: metric unit to compare")
	rel := flag.Float64("rel", 0.03, "with -compare: allowed relative increase over the baseline value")
	flag.Parse()

	rep := Report{Context: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, "Benchmark") {
			switch k {
			case "goos", "goarch", "pkg", "cpu":
				rep.Context[k] = v
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench2json: skipping %q: %v\n", line, err)
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *compare != "" {
		os.Exit(runCompare(rep, *compare, *name, *against, *metric, *rel))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

// runCompare gates one benchmark metric against an archived report.
// It returns the process exit code: 0 within tolerance, 1 regressed
// (or the lookup failed — a silent pass on a renamed benchmark would
// hollow the gate out).
func runCompare(rep Report, baselinePath, name, against, metric string, rel float64) int {
	if name == "" {
		fmt.Fprintln(os.Stderr, "bench2json: -compare requires -name")
		return 1
	}
	if against == "" {
		against = name
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		return 1
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: %s: %v\n", baselinePath, err)
		return 1
	}
	cur, ok := findMetric(rep, name, metric)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench2json: %q %s not found on stdin\n", name, metric)
		return 1
	}
	want, ok := findMetric(base, against, metric)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench2json: %q %s not found in %s\n", against, metric, baselinePath)
		return 1
	}
	limit := want * (1 + rel)
	verdict := "OK"
	code := 0
	if cur > limit {
		verdict = "REGRESSED"
		code = 1
	}
	fmt.Printf("%s: %s %s = %g vs %s = %g in %s (limit %g, +%.0f%%)\n",
		verdict, name, metric, cur, against, want, baselinePath, limit, rel*100)
	return code
}

// findMetric looks a benchmark's metric up by name, ignoring the
// "-<GOMAXPROCS>" suffix go test appends, on both sides.
func findMetric(rep Report, name, metric string) (float64, bool) {
	for _, b := range rep.Benchmarks {
		if stripCPUSuffix(b.Name) != stripCPUSuffix(name) {
			continue
		}
		v, ok := b.Metrics[metric]
		return v, ok
	}
	return 0, false
}

// stripCPUSuffix removes a trailing "-<digits>" benchmark-name suffix.
func stripCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if tail := name[i+1:]; tail != "" {
		for _, c := range tail {
			if c < '0' || c > '9' {
				return name
			}
		}
		return name[:i]
	}
	return name
}

// parseLine splits "BenchmarkX-8  3  42 ns/op  1.5 points/s ..." into
// name, iteration count, and (value, unit) metric pairs.
func parseLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, fmt.Errorf("want at least name, count, and one metric pair")
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count %q", fields[1])
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Benchmark{}, fmt.Errorf("odd metric field count")
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad metric value %q", rest[i])
		}
		b.Metrics[rest[i+1]] = v
	}
	return b, nil
}
