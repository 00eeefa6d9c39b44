package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"tcphack/internal/campaign"
	"tcphack/internal/dist"
)

// span is one timed call the benchmark made into a layer. Parent is the
// ID of the span that caused it (0 for the run's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Track names the caller: "main", the dist "client", or the dist
	// "worker"; spans of one track never overlap except by nesting.
	Track   string `json:"track"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how untraced runs use the same
// code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(name, track string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Track: track,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// open records a span that time will close with end; until then it
// ends where it starts.
func (r *recorder) open(name string, parent int) int {
	now := time.Now()
	return r.add(name, "main", parent, now, now)
}

// end closes a span opened with open.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	ns := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = ns
	r.mu.Unlock()
}

// reparent moves spans under a parent recorded after them.
func (r *recorder) reparent(ids []int, parent int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, id := range ids {
		r.spans[id-1].Parent = parent
	}
	r.mu.Unlock()
}

// durations returns, in milliseconds, the durations of every span
// with the given name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfSeconds returns, for every span with the given name, its
// duration minus the time its direct children cover.
func (r *recorder) selfSeconds(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := map[int]time.Duration{}
	for _, s := range r.spans {
		child[s.Parent] += s.dur()
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, (s.dur() - child[s.ID]).Seconds())
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTransport is the http.RoundTripper of a traced dist.Client: it
// records one span per HTTP call, named after the dist endpoint, under
// the span parent() returns. On the worker track it also remembers
// when the last lease was granted and which calls followed it, so the
// point span OnPoint closes can adopt them.
type spanTransport struct {
	base   http.RoundTripper
	rec    *recorder
	track  string
	parent func() int

	mu         sync.Mutex
	leaseEnd   time.Time
	sinceLease []int
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	name := "dist." + endpoint(req.Method, req.URL.Path)
	id := t.rec.add(name, t.track, t.parent(), start, end)
	t.mu.Lock()
	if name == "dist.lease" {
		t.leaseEnd, t.sinceLease = end, nil
	} else {
		t.sinceLease = append(t.sinceLease, id)
	}
	t.mu.Unlock()
	return resp, err
}

// pointDone records the span of one simulated point: from the grant of
// the lease that carried it to now, adopting the calls made since.
func (t *spanTransport) pointDone(parent int) {
	end := time.Now()
	t.mu.Lock()
	start, adopted := t.leaseEnd, t.sinceLease
	t.leaseEnd, t.sinceLease = end, nil
	t.mu.Unlock()
	id := t.rec.add("campaign.point", t.track, parent, start, end)
	t.rec.reparent(adopted, id)
}

// endpoint names the dist API call a request makes.
func endpoint(method, path string) string {
	switch {
	case path == "/lease":
		return "lease"
	case path == "/complete":
		return "complete"
	case path == "/heartbeat":
		return "heartbeat"
	case path == "/metrics":
		return "metrics"
	case path == "/jobs":
		if method == http.MethodPost {
			return "submit"
		}
		return "jobs"
	case strings.HasSuffix(path, "/points"):
		return "stream"
	case strings.HasSuffix(path, "/rows"):
		return "rows"
	case strings.HasPrefix(path, "/jobs/"):
		return "status"
	}
	return "other"
}

// spanStore is the dist.Store of a traced daemon: it records a span
// for every Get and Put of the store it wraps.
type spanStore struct {
	inner  dist.Store
	rec    *recorder
	parent func() int
}

func (s spanStore) Get(fp string) (*campaign.Result, error) {
	start := time.Now()
	r, err := s.inner.Get(fp)
	s.rec.add("store.get", "daemon", s.parent(), start, time.Now())
	return r, err
}

func (s spanStore) Put(fp string, r campaign.Result) error {
	start := time.Now()
	err := s.inner.Put(fp, r)
	s.rec.add("store.put", "daemon", s.parent(), start, time.Now())
	return err
}
