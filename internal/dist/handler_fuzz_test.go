package dist

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tcphack/internal/campaign"
)

// fuzzRoutes are the daemon endpoints FuzzServerHandler drives; the
// input's path segment fills the {…} part.
var fuzzRoutes = []struct{ method, path string }{
	{"POST", "/jobs"},
	{"POST", "/lease"},
	{"POST", "/heartbeat"},
	{"POST", "/jobs/j1/shards/{}/points"},
	{"GET", "/jobs/{}"},
	{"GET", "/jobs/{}/rows"},
	{"GET", "/metrics"},
}

// FuzzServerHandler serves one fuzzed request through the daemon's
// HTTP handler. Each input starts from a fresh server holding job j1
// (the 4-point test grid in 2 shards) with shard 0 leased to "w0" and
// its first row already streamed. The route byte picks the endpoint,
// seg fills its path parameter and body is the request body. Whatever
// the input, the handler must not panic or answer 5xx; a 4xx must
// leave j1's status and rows untouched; and for every job the shard
// counts sum to the total, DoneRows counts the rows held, and the job
// is done exactly when every row is present.
func FuzzServerHandler(f *testing.F) {
	var (
		once sync.Once
		rows campaign.Results
	)
	f.Fuzz(func(t *testing.T, route uint8, seg string, body []byte) {
		once.Do(func() { rows = serialRows(t, testWire()) })
		clock := newFakeClock()
		s, err := NewServer(ServerConfig{
			Store:    NewMemStore(),
			LeaseTTL: time.Minute,
			Now:      clock.now,
			Logf:     func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(testWire(), 2, ""); err != nil {
			t.Fatal(err)
		}
		if grant, ok := s.lease("w0"); !ok || grant.Shard != 0 {
			t.Fatalf("lease = %+v, %v; want shard 0", grant, ok)
		}
		if _, err := s.streamPoint("w0", "j1", 0, rows[0]); err != nil {
			t.Fatal(err)
		}
		beforeStatus, beforeRows := fuzzSnapshot(t, s, "j1")

		r := fuzzRoutes[int(route)%len(fuzzRoutes)]
		path := strings.Replace(r.path, "{}", url.PathEscape(seg), 1)
		req := httptest.NewRequest(r.method, path, bytes.NewReader(body))
		if r.path == "/metrics" && seg != "" {
			req.Header.Set("Accept", "text/plain;version=0.0.4")
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("%s %s: %d %s", r.method, path, rec.Code, rec.Body)
		}
		if rec.Code >= http.StatusBadRequest {
			afterStatus, afterRows := fuzzSnapshot(t, s, "j1")
			if !reflect.DeepEqual(afterStatus, beforeStatus) || afterRows != beforeRows {
				t.Fatalf("%s %s answered %d but changed j1:\n status %+v\n     -> %+v\n rows %s\n   -> %s",
					r.method, path, rec.Code, beforeStatus, afterStatus, beforeRows, afterRows)
			}
		}
		for _, st := range s.Jobs() {
			if st.ShardsDone+st.ShardsInflight+st.ShardsPending != st.ShardsTotal {
				t.Fatalf("job %s shard counts do not sum: %+v", st.ID, st)
			}
			held, err := s.Rows(st.ID, true)
			if err != nil {
				t.Fatal(err)
			}
			if st.DoneRows != len(held) {
				t.Fatalf("job %s: DoneRows %d, %d rows held", st.ID, st.DoneRows, len(held))
			}
			if (st.State == "done") != (st.DoneRows == st.TotalPoints) {
				t.Fatalf("job %s is %s with %d of %d rows", st.ID, st.State, st.DoneRows, st.TotalPoints)
			}
		}
	})
}

// fuzzSnapshot captures a job's status and held rows.
func fuzzSnapshot(t *testing.T, s *Server, id string) (JobStatus, string) {
	t.Helper()
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	held, err := s.Rows(id, true)
	if err != nil {
		t.Fatal(err)
	}
	return st, rowsJSON(t, held)
}
