package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// DefaultRecorderCap is the ring capacity NewRecorder uses when the
// caller passes a non-positive one: enough for a few simulated seconds
// of a saturated single-BSS network.
const DefaultRecorderCap = 1 << 16

// Recorder is the bounded ring-buffer flight recorder: it retains the
// newest capacity events, overwriting the oldest once full. The zero
// value is not usable; construct with NewRecorder.
type Recorder struct {
	buf   []Event
	next  int // overwrite position once the ring is full
	total int // events ever emitted, including overwritten ones
}

// NewRecorder returns a flight recorder retaining the newest capacity
// events (DefaultRecorderCap when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// Emit implements Tracer.
func (r *Recorder) Emit(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % len(r.buf)
	}
	r.total++
}

// Total returns how many events were emitted over the recorder's
// lifetime, including any the ring has since overwritten.
//
// Test accessor: tcphack (the root package).
func (r *Recorder) Total() int { return r.total }

// Events returns the retained events in emission order.
//
// Test accessor: channel, mac.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Writer streams every probe event to an io.Writer as JSON Lines,
// buffered. Close flushes the buffer (and closes the underlying
// writer when it is an io.Closer) and reports the first error
// encountered. The zero value is not usable; construct with NewWriter.
type Writer struct {
	under io.Writer
	bw    *bufio.Writer
	enc   *json.Encoder
	err   error
	n     int
}

// NewWriter returns a streaming JSONL exporter over w.
func NewWriter(w io.Writer) *Writer {
	wr := &Writer{under: w, bw: bufio.NewWriter(w)}
	wr.enc = json.NewEncoder(wr.bw)
	return wr
}

// Emit implements Tracer.
func (w *Writer) Emit(e Event) {
	if w.err != nil {
		return
	}
	w.err = w.enc.Encode(e)
	w.n++
}

// Count returns how many events were written.
func (w *Writer) Count() int { return w.n }

// Close flushes buffered events, closes the underlying writer when it
// implements io.Closer, and returns the first error seen.
func (w *Writer) Close() error {
	if ferr := w.bw.Flush(); w.err == nil {
		w.err = ferr
	}
	if c, ok := w.under.(io.Closer); ok {
		if cerr := c.Close(); w.err == nil {
			w.err = cerr
		}
	}
	return w.err
}

// knownKinds is the JSONL schema's kind vocabulary.
var knownKinds = map[Kind]bool{
	KindTxStart: true, KindTxEnd: true, KindCollision: true,
	KindRxFrame: true, KindNAV: true, KindBAWindow: true,
	KindMPDUFate: true, KindHackState: true,
	KindROHCPacket: true, KindROHCResult: true,
	KindTCPRetransmit: true, KindTCPRTO: true, KindTCPCwnd: true,
}

// ValidateJSONL checks a JSONL trace stream against the schema: every
// line must decode as an Event with a known kind, timestamps must be
// non-decreasing, tx_end records must reference a transmission that
// started earlier in the stream and has not ended, and both ends of a
// collision (id and id2) must be such transmissions.
// It returns the number of events validated. Transmissions still open
// at EOF are legal (the trace may end mid-flight).
func ValidateJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var (
		n    int
		last Event
		open = map[uint64]bool{}
	)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return n, fmt.Errorf("trace: line %d: %v", line, err)
		}
		if !knownKinds[e.Kind] {
			return n, fmt.Errorf("trace: line %d: unknown kind %q", line, e.Kind)
		}
		if n > 0 && e.T < last.T {
			return n, fmt.Errorf("trace: line %d: time went backwards (%d after %d)", line, e.T, last.T)
		}
		switch e.Kind {
		case KindTxStart:
			if open[e.ID] {
				return n, fmt.Errorf("trace: line %d: tx id %d started twice", line, e.ID)
			}
			if e.End < e.T {
				return n, fmt.Errorf("trace: line %d: tx id %d ends before it starts", line, e.ID)
			}
			open[e.ID] = true
		case KindTxEnd:
			if !open[e.ID] {
				return n, fmt.Errorf("trace: line %d: tx_end for unknown id %d", line, e.ID)
			}
			delete(open, e.ID)
		case KindCollision:
			for _, id := range [2]uint64{e.ID, e.ID2} {
				if !open[id] {
					return n, fmt.Errorf("trace: line %d: collision for unknown id %d", line, id)
				}
			}
		}
		last = e
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("trace: %v", err)
	}
	return n, nil
}
