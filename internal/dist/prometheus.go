package dist

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of the /metrics
// payload. The endpoint's default stays JSON — the CLI and the CI
// smoke tests depend on it — and a scraper that prefers text/plain
// (Prometheus sends "Accept: text/plain;version=0.0.4", OpenMetrics
// scrapers "application/openmetrics-text") receives this form instead.

// wantsPrometheus reports whether the request prefers the Prometheus
// text exposition over the default JSON payload.
func wantsPrometheus(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics-text")
}

// promEscape escapes a label value per the text exposition format.
func promEscape(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}

func promNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePrometheus renders the metrics snapshot in deterministic order:
// jobs in submission order, workers sorted by name, one HELP/TYPE
// header per family.
func writePrometheus(w io.Writer, m Metrics) {
	jobGauge := func(name, help string, value func(j JobStatus) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, j := range m.Jobs {
			fmt.Fprintf(w, "%s{job=\"%s\",campaign=\"%s\",scenario=\"%s\"} %s\n",
				name, promEscape(j.ID), promEscape(j.Campaign), promEscape(j.Scenario),
				promNum(value(j)))
		}
	}
	jobGauge("tcphack_job_running", "Whether the job is still running (1) or done (0).",
		func(j JobStatus) float64 {
			if j.State == "running" {
				return 1
			}
			return 0
		})
	jobGauge("tcphack_job_total_points", "Grid points in the job.",
		func(j JobStatus) float64 { return float64(j.TotalPoints) })
	jobGauge("tcphack_job_cached_points", "Points served from the memoization store at admission.",
		func(j JobStatus) float64 { return float64(j.CachedPoints) })
	jobGauge("tcphack_job_done_rows", "Result rows landed so far (cached + simulated).",
		func(j JobStatus) float64 { return float64(j.DoneRows) })
	jobGauge("tcphack_job_shards_done", "Shards completed.",
		func(j JobStatus) float64 { return float64(j.ShardsDone) })
	jobGauge("tcphack_job_shards_inflight", "Shards currently leased to workers.",
		func(j JobStatus) float64 { return float64(j.ShardsInflight) })
	jobGauge("tcphack_job_shards_pending", "Shards awaiting a worker.",
		func(j JobStatus) float64 { return float64(j.ShardsPending) })
	jobGauge("tcphack_job_requeues", "Lease expiries across the job's shards.",
		func(j JobStatus) float64 { return float64(j.Requeues) })
	jobGauge("tcphack_job_rows_per_sec", "Simulated-row completion rate since submission.",
		func(j JobStatus) float64 { return j.RowsPerSec })
	jobGauge("tcphack_job_points_streamed", "Simulated rows, each landed by its point-level stream.",
		func(j JobStatus) float64 { return float64(j.PointsStreamed) })
	jobGauge("tcphack_job_points_resimulated", "Streamed rows the server already held (work repeated after lease churn).",
		func(j JobStatus) float64 { return float64(j.PointsResimulated) })
	jobGauge("tcphack_job_degraded", "Whether the job fell back to compute-everything mode after a store failure.",
		func(j JobStatus) float64 {
			if j.Degraded {
				return 1
			}
			return 0
		})

	workers := make([]string, 0, len(m.Workers))
	for name := range m.Workers {
		workers = append(workers, name)
	}
	sort.Strings(workers)
	workerGauge := func(name, help string, value func(ws WorkerStatus) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, wk := range workers {
			fmt.Fprintf(w, "%s{worker=\"%s\"} %s\n",
				name, promEscape(wk), promNum(value(m.Workers[wk])))
		}
	}
	workerGauge("tcphack_worker_live", "Whether the worker made contact within two lease TTLs.",
		func(ws WorkerStatus) float64 {
			if ws.Live {
				return 1
			}
			return 0
		})
	workerGauge("tcphack_worker_last_seen_seconds", "Unix time of the worker's most recent contact.",
		func(ws WorkerStatus) float64 { return float64(ws.LastSeen.UnixNano()) / 1e9 })

	storeGauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promNum(v))
	}
	storeGauge("tcphack_store_get_errors", "Memoization store get failures absorbed by degradation.",
		float64(m.Store.GetErrors))
	storeGauge("tcphack_store_put_errors", "Memoization store put failures absorbed by degradation.",
		float64(m.Store.PutErrors))
	storeGauge("tcphack_store_corrupt_quarantined", "Store entries quarantined after a failed integrity check.",
		float64(m.Store.CorruptQuarantined))
}
