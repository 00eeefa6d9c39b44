package dist

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsContentNegotiation: /metrics defaults to the JSON
// snapshot (the CLI and the CI smokes depend on it) and switches to
// the Prometheus text exposition when the scraper asks for it.
func TestMetricsContentNegotiation(t *testing.T) {
	s, err := NewServer(ServerConfig{ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts, c := startDaemon(t, s)
	st, err := c.Submit(testWire(), 1)
	if err != nil {
		t.Fatal(err)
	}
	runWorkers(t, c, st.ID, 1)

	get := func(accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics (accept %q): %d %s", accept, resp.StatusCode, body)
		}
		return resp.Header.Get("Content-Type"), string(body)
	}

	ct, body := get("")
	if !strings.Contains(ct, "application/json") {
		t.Errorf("default Content-Type = %q, want JSON", ct)
	}
	if !strings.Contains(body, `"jobs"`) {
		t.Errorf("default body is not the JSON snapshot: %.120s", body)
	}

	ct, body = get("text/plain;version=0.0.4")
	if want := "text/plain; version=0.0.4"; !strings.Contains(ct, want) {
		t.Errorf("prometheus Content-Type = %q, want %q", ct, want)
	}
	for _, frag := range []string{
		"# TYPE tcphack_job_running gauge",
		"tcphack_job_running{job=\"" + st.ID + "\"",
		"tcphack_job_done_rows",
		"tcphack_worker_live{worker=\"a\"} 1",
		"tcphack_worker_last_seen_seconds",
		"tcphack_job_degraded{job=\"" + st.ID + "\"",
		"tcphack_job_points_streamed",
		"tcphack_job_points_resimulated",
		"# TYPE tcphack_store_get_errors gauge",
		"tcphack_store_put_errors 0",
		"tcphack_store_corrupt_quarantined 0",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("prometheus body missing %q:\n%s", frag, body)
		}
	}

	if ct, _ := get("application/openmetrics-text"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Errorf("openmetrics Accept got Content-Type %q", ct)
	}
}
