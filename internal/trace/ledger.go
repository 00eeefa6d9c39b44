package trace

import (
	"sort"

	"tcphack/internal/sim"
)

// Buckets partitions one station's transmit airtime by what the air
// carried. All values are simulated nanoseconds.
type Buckets struct {
	// Data is first-transmission data-frame airtime — the useful share.
	Data sim.Duration `json:"data"`
	// WifiAck is link-layer ACK / Block ACK airtime (minus any HACK
	// payload share, which lands in TCPAck).
	WifiAck sim.Duration `json:"wifi_ack"`
	// BAR is Block ACK Request airtime.
	BAR sim.Duration `json:"bar"`
	// TCPAck is airtime spent moving TCP ACKs: natively-travelling pure
	// ACK data frames plus the HACK compressed-payload share of LL ACKs.
	TCPAck sim.Duration `json:"tcp_ack"`
	// Retry is data-frame airtime containing retransmitted MPDUs.
	Retry sim.Duration `json:"retry"`
}

// Busy returns the bucket total — the station's attributed airtime.
func (b Buckets) Busy() sim.Duration {
	return b.Data + b.WifiAck + b.BAR + b.TCPAck + b.Retry
}

func (b *Buckets) add(o Buckets) {
	b.Data += o.Data
	b.WifiAck += o.WifiAck
	b.BAR += o.BAR
	b.TCPAck += o.TCPAck
	b.Retry += o.Retry
}

// ledgerTx is one in-flight transmission: accrued holds the medium
// time attributed to it so far (only the earliest-started active
// transmission accrues, so every instant is counted exactly once).
type ledgerTx struct {
	id      uint64
	src     uint16
	class   FrameClass
	extra   sim.Duration
	accrued sim.Duration
}

// AirtimeLedger is a Tracer that accounts every nanosecond of
// simulated time into per-station Buckets plus idle, exactly: at any
// snapshot, busy + idle equals the elapsed simulated time with zero
// remainder. It reads only the medium's tx_start and tx_end events
// and ignores every other kind, so attach it to channel.Medium's
// Tracer (composed with others via Multi) rather than to every layer.
// The zero value is not usable; construct with NewAirtimeLedger.
type AirtimeLedger struct {
	lastEdge sim.Time
	idle     sim.Duration
	active   []ledgerTx
	stations map[uint16]*Buckets
}

// NewAirtimeLedger returns an empty ledger starting at time 0.
func NewAirtimeLedger() *AirtimeLedger {
	return &AirtimeLedger{stations: make(map[uint16]*Buckets)}
}

// advance attributes the span since the last edge: to idle when the
// medium is quiet, else to the earliest-started active transmission.
func (l *AirtimeLedger) advance(now sim.Time) {
	d := now - l.lastEdge
	if d <= 0 {
		return
	}
	if len(l.active) == 0 {
		l.idle += d
	} else {
		l.active[0].accrued += d
	}
	l.lastEdge = now
}

// Emit implements Tracer.
func (l *AirtimeLedger) Emit(e Event) {
	switch e.Kind {
	case KindTxStart:
		l.advance(e.T)
		l.active = append(l.active, ledgerTx{id: e.ID, src: e.Src, class: classOf(e.Class), extra: e.Extra})
	case KindTxEnd:
		l.advance(e.T)
		for i := range l.active {
			if l.active[i].id == e.ID {
				l.settle(l.stations, l.active[i])
				l.active = append(l.active[:i], l.active[i+1:]...)
				return
			}
		}
		// A transmission the ledger never saw start (attached
		// mid-run): nothing accrued, nothing to settle.
	}
}

// settle books a finished transmission's accrued time: up to extra
// goes to the TCP-ACK bucket (the HACK payload share of an LL ACK),
// the remainder to the frame class's bucket.
func (l *AirtimeLedger) settle(into map[uint16]*Buckets, tx ledgerTx) {
	b := into[tx.src]
	if b == nil {
		b = &Buckets{}
		into[tx.src] = b
	}
	rest := tx.accrued
	if p := tx.extra; p > 0 {
		if p > rest {
			p = rest
		}
		b.TCPAck += p
		rest -= p
	}
	switch tx.class {
	case ClassData:
		b.Data += rest
	case ClassRetry:
		b.Retry += rest
	case ClassTCPAck:
		b.TCPAck += rest
	case ClassAck:
		b.WifiAck += rest
	case ClassBAR:
		b.BAR += rest
	}
}

// InFlight returns how many transmissions are currently on the air.
//
// Test accessor: tcphack (the root package).
func (l *AirtimeLedger) InFlight() int { return len(l.active) }

// StationAirtime is one station's row in an AirtimeReport.
type StationAirtime struct {
	// Station is the MAC address.
	Station uint16 `json:"station"`
	Buckets
}

// AirtimeReport is a point-in-time snapshot of the ledger.
type AirtimeReport struct {
	// Elapsed is the simulated time the report covers (from 0).
	Elapsed sim.Duration `json:"elapsed"`
	// Idle is the time the medium carried nothing.
	Idle sim.Duration `json:"idle"`
	// Total sums every station's buckets.
	Total Buckets `json:"total"`
	// Stations lists per-station buckets, sorted by address.
	Stations []StationAirtime `json:"stations"`
}

// Snapshot returns the ledger's state at now, including the accrued
// (but unsettled) time of in-flight transmissions, so the report
// always conserves: Busy() + Idle == Elapsed exactly.
func (l *AirtimeLedger) Snapshot(now sim.Time) AirtimeReport {
	l.advance(now)
	per := make(map[uint16]*Buckets, len(l.stations))
	for sta, b := range l.stations {
		cp := *b
		per[sta] = &cp
	}
	for _, tx := range l.active {
		l.settle(per, tx)
	}
	rep := AirtimeReport{Elapsed: sim.Duration(now), Idle: l.idle}
	addrs := make([]int, 0, len(per))
	for sta := range per {
		addrs = append(addrs, int(sta))
	}
	sort.Ints(addrs)
	for _, sta := range addrs {
		b := per[uint16(sta)]
		rep.Stations = append(rep.Stations, StationAirtime{Station: uint16(sta), Buckets: *b})
		rep.Total.add(*b)
	}
	return rep
}

// Busy returns the total attributed (non-idle) airtime.
func (r AirtimeReport) Busy() sim.Duration { return r.Total.Busy() }

// Efficiency returns the useful share of busy airtime — data-frame
// time over all attributed time (the paper's medium-utilization
// metric: LL ACKs, BARs, TCP-ACK transport, and retries are overhead).
func (r AirtimeReport) Efficiency() float64 {
	busy := r.Busy()
	if busy == 0 {
		return 0
	}
	return float64(r.Total.Data) / float64(busy)
}

// Conserved reports whether every nanosecond is accounted for:
// busy + idle == elapsed, with zero remainder.
func (r AirtimeReport) Conserved() bool { return r.Busy()+r.Idle == r.Elapsed }
