// Trace-level determinism pins: a handful of short, probe-dense runs
// whose full JSONL trace stream and result row are reduced to SHA-256
// digests and compared with testdata/trace-digests.txt. Golden
// baselines pin aggregated rows; these pin every tx_start, NAV update,
// MPDU fate and HACK transition in order, so an optimisation that
// claims to run the same simulation must reproduce them bit for bit.
package tcphack

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"tcphack/internal/campaign"
	"tcphack/internal/hack"
	"tcphack/internal/scenario"
	"tcphack/internal/sim"
	"tcphack/internal/trace"
)

const traceDigestFile = "testdata/trace-digests.txt"

// traceDigestCase is one pinned run: a registered scenario with extra
// options, driven by the scenario's own workload.
type traceDigestCase struct {
	name     string
	scenario string
	opts     []scenario.Option
}

// traceDigestCases cover both channel regimes, both MACs (single-MPDU
// and A-MPDU), every HACK holding policy, lossy recovery, and uplink
// contention between clients.
func traceDigestCases() []traceDigestCase {
	return []traceDigestCase{
		// SoRa's ACK turnaround and opportunistic mode's payload
		// allowance: the NAV lapses well after the ACK ends.
		{"sora-opportunistic-4c-loss5", "sora-opportunistic",
			[]scenario.Option{scenario.WithClients(4), scenario.WithUniformLoss(0.05)}},
		{"ht150-moredata-4c-loss5", "ht150-moredata",
			[]scenario.Option{scenario.WithClients(4), scenario.WithUniformLoss(0.05)}},
		// Uploads: clients contend with data frames of their own.
		{"ht150-timer-upload-3c", "ht150-upload",
			[]scenario.Option{scenario.WithClients(3), scenario.WithMode(hack.ModeTimer)}},
		// Plain 802.11a: no aggregation, no ACK turnaround.
		{"a54-stock-4c-loss2", "",
			[]scenario.Option{scenario.WithClients(4), scenario.WithUniformLoss(0.02)}},
		{"2bss-hidden-moredata", "2bss-hidden",
			[]scenario.Option{scenario.WithMode(hack.ModeMoreData)}},
	}
}

// traceDigests runs c for 0.5 s warm-up plus 0.5 s measured, checks
// its JSONL trace against the schema, and returns the hex SHA-256 of
// that trace and of its result row.
func traceDigests(t *testing.T, c traceDigestCase) (traceSum, rowSum string) {
	t.Helper()
	base := scenario.New(c.opts...)
	if c.scenario != "" {
		e, ok := scenario.Lookup(c.scenario)
		if !ok {
			t.Fatalf("unknown scenario %q", c.scenario)
		}
		base = e.Config(c.opts...)
	}
	workload, err := campaign.NamedWorkload(scenario.WorkloadOf(c.scenario))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var stream bytes.Buffer
	rows := campaign.Run(campaign.Spec{
		Name:     c.name,
		Base:     base,
		Warmup:   500 * sim.Millisecond,
		Measure:  500 * sim.Millisecond,
		Workers:  1,
		Workload: workload,
		// The runner closes (flushes) the writer after the run.
		Trace: func(campaign.Point) trace.Tracer { return trace.NewWriter(io.MultiWriter(h, &stream)) },
	})
	if n, err := trace.ValidateJSONL(&stream); err != nil || n == 0 {
		t.Errorf("trace of %s: ValidateJSONL = %d, %v; want a valid stream", c.name, n, err)
	}
	var row bytes.Buffer
	if err := rows.WriteJSON(&row); err != nil {
		t.Fatal(err)
	}
	rs := sha256.Sum256(row.Bytes())
	return hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(rs[:])
}

// readTraceDigests parses the committed "<case> <trace> <row>" lines.
func readTraceDigests(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open(traceDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("%s: malformed line %q", traceDigestFile, line)
		}
		want[fs[0]] = [2]string{fs[1], fs[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTraceDigests requires every pinned run's JSONL trace and result
// row to hash to the committed digests. On a mismatch the failure
// prints the line to commit if the change in behaviour is intended.
func TestTraceDigests(t *testing.T) {
	want := readTraceDigests(t)
	for _, c := range traceDigestCases() {
		t.Run(c.name, func(t *testing.T) {
			tr, row := traceDigests(t, c)
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("no digest committed for %s; add:\n%s %s %s", c.name, c.name, tr, row)
			}
			if tr != w[0] || row != w[1] {
				t.Errorf("digests differ from %s (trace match %v, row match %v); got:\n%s",
					traceDigestFile, tr == w[0], row == w[1], fmt.Sprintf("%s %s %s", c.name, tr, row))
			}
		})
	}
}
