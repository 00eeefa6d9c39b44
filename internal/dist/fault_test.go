package dist

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcphack/internal/campaign"
)

// Fault injection for the distributed layer: a Store wrapper and an
// http.RoundTripper that fail, delay, duplicate, and corrupt on a
// seeded deterministic schedule, each firing counted per class. They
// exist so the chaos tests (and CI's chaos-smoke job) can assert not
// just that a sweep survived, but that every failure mode it claims to
// survive actually occurred during the run.

// faultDice is the shared seeded schedule: one mutex-guarded RNG whose
// draw sequence is fully determined by the seed, so a chaos run's
// fault schedule replays exactly (modulo goroutine interleaving of the
// draws themselves, which the tests treat as part of the chaos).
type faultDice struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newFaultDice(seed int64) *faultDice {
	return &faultDice{rng: rand.New(rand.NewSource(seed))}
}

// roll reports whether a fault with probability p fires.
func (d *faultDice) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rng.Float64() < p
}

// duration draws a delay in [0, max).
func (d *faultDice) duration(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Duration(d.rng.Int63n(int64(max)))
}

// FaultStoreStats counts the faults a FaultStore has fired, per class.
type FaultStoreStats struct {
	// FailedGets and FailedPuts count injected backend errors.
	FailedGets, FailedPuts int64
	// CorruptedPuts counts entries bit-rotted after a successful Put.
	CorruptedPuts int64
	// Delayed counts operations that slept before proceeding.
	Delayed int64
}

// FaultStore wraps a Store with a seeded deterministic fault schedule:
// Get/Put can fail (injected backend error), be delayed, and — when
// the inner store supports it — an entry can be corrupted in place
// right after a successful Put, modeling bit rot that only a later
// integrity check can catch. The zero probabilities make it a
// transparent pass-through.
type FaultStore struct {
	// Inner is the real store.
	Inner Store
	// Seed fixes the fault schedule.
	Seed int64
	// FailGet, FailPut, CorruptPut, and Delay are per-operation fault
	// probabilities in [0,1].
	FailGet, FailPut, CorruptPut, Delay float64
	// MaxDelay bounds an injected delay (default 2 ms).
	MaxDelay time.Duration

	once  sync.Once
	dice  *faultDice
	stats FaultStoreStats
}

// entryCorrupter is what an inner store must implement for CorruptPut
// to have teeth (DirStore does).
type entryCorrupter interface {
	CorruptEntry(fp string) error
}

// CorruptEntry flips bytes in the middle of fp's stored file in place
// — the hook FaultStore uses to model bit rot. A subsequent Get fails
// the CRC check and quarantines the entry. Missing entries are a no-op.
func (s *DirStore) CorruptEntry(fp string) error {
	path, err := s.path(fp)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for i := len(data) / 2; i < len(data)/2+8 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	return os.WriteFile(path, data, 0o644)
}

func (s *FaultStore) init() {
	s.once.Do(func() {
		s.dice = newFaultDice(s.Seed)
		if s.MaxDelay <= 0 {
			s.MaxDelay = 2 * time.Millisecond
		}
	})
}

// Get implements Store, subject to the fault schedule.
func (s *FaultStore) Get(fp string) (*campaign.Result, error) {
	s.init()
	if s.dice.roll(s.Delay) {
		atomic.AddInt64(&s.stats.Delayed, 1)
		time.Sleep(s.dice.duration(s.MaxDelay))
	}
	if s.dice.roll(s.FailGet) {
		atomic.AddInt64(&s.stats.FailedGets, 1)
		return nil, fmt.Errorf("dist: fault: injected store get failure for %s", fp)
	}
	return s.Inner.Get(fp)
}

// Put implements Store, subject to the fault schedule. A corrupted Put
// still reports success — exactly like real bit rot, the damage is
// only discoverable by a later Get's integrity check.
func (s *FaultStore) Put(fp string, r campaign.Result) error {
	s.init()
	if s.dice.roll(s.Delay) {
		atomic.AddInt64(&s.stats.Delayed, 1)
		time.Sleep(s.dice.duration(s.MaxDelay))
	}
	if s.dice.roll(s.FailPut) {
		atomic.AddInt64(&s.stats.FailedPuts, 1)
		return fmt.Errorf("dist: fault: injected store put failure for %s", fp)
	}
	if err := s.Inner.Put(fp, r); err != nil {
		return err
	}
	if c, ok := s.Inner.(entryCorrupter); ok && s.dice.roll(s.CorruptPut) {
		if err := c.CorruptEntry(fp); err == nil {
			atomic.AddInt64(&s.stats.CorruptedPuts, 1)
		}
	}
	return nil
}

// CorruptCount forwards the inner store's quarantine counter so the
// daemon's metrics still see through the fault wrapper.
func (s *FaultStore) CorruptCount() int64 {
	if cc, ok := s.Inner.(interface{ CorruptCount() int64 }); ok {
		return cc.CorruptCount()
	}
	return 0
}

// Stats snapshots the per-class fired counters.
func (s *FaultStore) Stats() FaultStoreStats {
	return FaultStoreStats{
		FailedGets:    atomic.LoadInt64(&s.stats.FailedGets),
		FailedPuts:    atomic.LoadInt64(&s.stats.FailedPuts),
		CorruptedPuts: atomic.LoadInt64(&s.stats.CorruptedPuts),
		Delayed:       atomic.LoadInt64(&s.stats.Delayed),
	}
}

// FaultTransportStats counts the faults a FaultTransport has fired,
// per class.
type FaultTransportStats struct {
	// DroppedRequests never reached the server; DroppedResponses were
	// processed by the server but the response was lost — the case
	// that forces duplicate deliveries and makes idempotency load-
	// bearing.
	DroppedRequests, DroppedResponses int64
	// Duplicated requests were sent to the server twice.
	Duplicated int64
	// Injected503s were answered with a synthetic 503 without reaching
	// the server.
	Injected503s int64
	// Delayed requests slept before being sent.
	Delayed int64
}

// FaultTransport is a fault-injecting http.RoundTripper for the dist
// Client: per request it can (by seeded schedule) drop the request
// before it is sent, drop the response after the server processed it,
// send the request twice, answer with a synthetic 503, or delay. All
// five classes map to real network/proxy failure modes, and all five
// must be survivable by the client's retry loop plus the server's
// idempotent endpoints. Zero probabilities pass through untouched.
type FaultTransport struct {
	// Inner is the real transport (default http.DefaultTransport).
	Inner http.RoundTripper
	// Seed fixes the fault schedule.
	Seed int64
	// DropRequest, DropResponse, Duplicate, Err503, and Delay are
	// per-request fault probabilities in [0,1].
	DropRequest, DropResponse, Duplicate, Err503, Delay float64
	// MaxDelay bounds an injected delay (default 2 ms).
	MaxDelay time.Duration

	once  sync.Once
	dice  *faultDice
	stats FaultTransportStats
}

func (t *FaultTransport) init() {
	t.once.Do(func() {
		t.dice = newFaultDice(t.Seed)
		if t.MaxDelay <= 0 {
			t.MaxDelay = 2 * time.Millisecond
		}
	})
}

func (t *FaultTransport) inner() http.RoundTripper {
	if t.Inner != nil {
		return t.Inner
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper with the fault schedule.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.init()
	if t.dice.roll(t.Delay) {
		atomic.AddInt64(&t.stats.Delayed, 1)
		time.Sleep(t.dice.duration(t.MaxDelay))
	}
	if t.dice.roll(t.Err503) {
		atomic.AddInt64(&t.stats.Injected503s, 1)
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			Status:     "503 Service Unavailable (injected)",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(strings.NewReader(`{"error":"dist: fault: injected 503"}`)),
			Request: req,
		}, nil
	}
	if t.dice.roll(t.DropRequest) {
		atomic.AddInt64(&t.stats.DroppedRequests, 1)
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("dist: fault: request dropped before send")
	}
	// Duplicate: the server processes the request twice; the caller
	// sees only the second response. Requires a replayable body.
	if t.dice.roll(t.Duplicate) && (req.Body == nil || req.GetBody != nil) {
		first := req.Clone(req.Context())
		if req.GetBody != nil {
			body, err := req.GetBody()
			if err == nil {
				first.Body = body
				if resp, err := t.inner().RoundTrip(first); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					atomic.AddInt64(&t.stats.Duplicated, 1)
				}
			}
		} else if resp, err := t.inner().RoundTrip(first); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			atomic.AddInt64(&t.stats.Duplicated, 1)
		}
	}
	resp, err := t.inner().RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.dice.roll(t.DropResponse) {
		atomic.AddInt64(&t.stats.DroppedResponses, 1)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("dist: fault: response dropped after server processed %s %s",
			req.Method, req.URL.Path)
	}
	return resp, nil
}

// Stats snapshots the per-class fired counters.
func (t *FaultTransport) Stats() FaultTransportStats {
	return FaultTransportStats{
		DroppedRequests:  atomic.LoadInt64(&t.stats.DroppedRequests),
		DroppedResponses: atomic.LoadInt64(&t.stats.DroppedResponses),
		Duplicated:       atomic.LoadInt64(&t.stats.Duplicated),
		Injected503s:     atomic.LoadInt64(&t.stats.Injected503s),
		Delayed:          atomic.LoadInt64(&t.stats.Delayed),
	}
}

// TestFaultStoreDeterministicSchedule: two FaultStores with one seed
// fail the same operations in the same order — the property that makes
// a chaos run's fault schedule replayable.
func TestFaultStoreDeterministicSchedule(t *testing.T) {
	row := serialRows(t, testWire())[0]
	pattern := func(seed int64) string {
		fs := &FaultStore{Inner: NewMemStore(), Seed: seed, FailGet: 0.4, FailPut: 0.4}
		var b strings.Builder
		for i := 0; i < 40; i++ {
			if err := fs.Put(fmt.Sprintf("fp%036d", i), row); err != nil {
				b.WriteByte('P')
			}
			if _, err := fs.Get(fmt.Sprintf("fp%036d", i)); err != nil {
				b.WriteByte('G')
			}
			b.WriteByte('.')
		}
		return b.String()
	}
	if pattern(7) != pattern(7) {
		t.Error("same seed produced different fault schedules")
	}
	if pattern(7) == pattern(8) {
		t.Error("different seeds produced identical fault schedules")
	}
	if !strings.ContainsAny(pattern(7), "PG") {
		t.Error("no faults fired at p=0.4 over 80 draws")
	}
}

// TestFaultStoreCorruptPutIsSilent: a corrupted Put reports success
// (bit rot is silent), and only the inner store's CRC check on a later
// Get exposes it — as a quarantined miss, never as wrong data.
func TestFaultStoreCorruptPutIsSilent(t *testing.T) {
	inner, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &FaultStore{Inner: inner, Seed: 1, CorruptPut: 1.0}
	row := serialRows(t, testWire())[0]
	if err := fs.Put("feedfacefeedface", row); err != nil {
		t.Fatalf("corrupted put must still report success, got %v", err)
	}
	if fs.Stats().CorruptedPuts != 1 {
		t.Fatalf("stats = %+v, want 1 corrupted put", fs.Stats())
	}
	got, err := fs.Get("feedfacefeedface")
	if err != nil || got != nil {
		t.Fatalf("Get after silent corruption = %v, %v; want quarantined miss", got, err)
	}
	if fs.CorruptCount() != 1 {
		t.Errorf("CorruptCount = %d, want 1 (forwarded from inner)", fs.CorruptCount())
	}
}

// TestFaultTransportClasses: every transport fault class fires under
// load, drops and 503s surface as client-visible failures, and
// duplicated requests genuinely reach the server twice.
func TestFaultTransportClasses(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		writeJSON(w, map[string]bool{"ok": true})
	}))
	defer ts.Close()

	ft := &FaultTransport{
		Seed:        42,
		DropRequest: 0.1, DropResponse: 0.1, Duplicate: 0.1, Err503: 0.1, Delay: 0.1,
	}
	c := &http.Client{Transport: ft}
	okResponses, failures := 0, 0
	for i := 0; i < 300; i++ {
		req, err := http.NewRequest("POST", ts.URL+"/x", strings.NewReader(`{"n":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Do(req)
		if err != nil {
			failures++
			continue
		}
		if resp.StatusCode == http.StatusOK {
			okResponses++
		}
		resp.Body.Close()
	}

	st := ft.Stats()
	for name, n := range map[string]int64{
		"DroppedRequests":  st.DroppedRequests,
		"DroppedResponses": st.DroppedResponses,
		"Duplicated":       st.Duplicated,
		"Injected503s":     st.Injected503s,
		"Delayed":          st.Delayed,
	} {
		if n == 0 {
			t.Errorf("fault class %s never fired: %+v", name, st)
		}
	}
	if failures == 0 {
		t.Error("no client-visible failures despite drops")
	}
	// The server saw: every ok response, every dropped response, and
	// one extra request per duplicate — but none of the dropped
	// requests or synthetic 503s.
	want := int64(okResponses) + st.DroppedResponses + st.Duplicated
	if served.Load() != want {
		t.Errorf("server served %d requests, want %d (ok=%d + droppedResp=%d + dup=%d)",
			served.Load(), want, okResponses, st.DroppedResponses, st.Duplicated)
	}
}
