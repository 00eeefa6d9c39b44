package main

import (
	"tcphack/internal/node"
	"tcphack/internal/sim"
)

// counts sums the counters a simulated network exports: the scheduler's
// events, the medium's transmissions, every station's MAC statistics
// and HACK driver accounting, and every TCP sender's retransmissions.
// Differences of two snapshots give a window's counts.
type counts struct {
	events                                         uint64
	tx, collided                                   uint64
	busy                                           sim.Duration
	mpdusSent, mpdusDelivered, retries, queueDrops uint64
	nativeAcks, nativeBytes                        uint64
	compressedAcks, compressedBytes                uint64
	resyncs, decompFailures                        uint64
	retransmits                                    uint64
}

func snapshot(n *node.Network) counts {
	c := counts{
		events:   n.Sched.EventsFired(),
		tx:       n.Medium.TxCount,
		collided: n.Medium.CollidedTx,
		busy:     n.Medium.AirtimeBusy,
	}
	stations := make([]*node.WifiNode, 0, len(n.BSSes)+len(n.Clients))
	for _, b := range n.BSSes {
		stations = append(stations, b.AP)
	}
	stations = append(stations, n.Clients...)
	for _, w := range stations {
		s := &w.MAC.Stats
		c.mpdusSent += s.MPDUsSent
		c.mpdusDelivered += s.MPDUsDelivered
		c.retries += s.Retries
		c.queueDrops += s.QueueDrops
		d := w.Driver
		c.nativeAcks += d.Acct.NativeAcks
		c.nativeBytes += d.Acct.NativeAckBytes
		c.compressedAcks += d.Acct.CompressedAcks
		c.compressedBytes += d.Acct.CompressedBytes
		c.resyncs += d.Resyncs
		c.decompFailures += d.DecompFailures
	}
	for _, f := range n.Flows {
		c.retransmits += f.Sender.Stats.Retransmits
	}
	return c
}

// sub returns c − o, field by field.
func (c counts) sub(o counts) counts {
	return counts{
		events: c.events - o.events, tx: c.tx - o.tx, collided: c.collided - o.collided,
		busy:      c.busy - o.busy,
		mpdusSent: c.mpdusSent - o.mpdusSent, mpdusDelivered: c.mpdusDelivered - o.mpdusDelivered,
		retries: c.retries - o.retries, queueDrops: c.queueDrops - o.queueDrops,
		nativeAcks: c.nativeAcks - o.nativeAcks, nativeBytes: c.nativeBytes - o.nativeBytes,
		compressedAcks: c.compressedAcks - o.compressedAcks, compressedBytes: c.compressedBytes - o.compressedBytes,
		resyncs: c.resyncs - o.resyncs, decompFailures: c.decompFailures - o.decompFailures,
		retransmits: c.retransmits - o.retransmits,
	}
}

// add accumulates o into c.
func (c *counts) add(o counts) {
	c.events += o.events
	c.tx += o.tx
	c.collided += o.collided
	c.busy += o.busy
	c.mpdusSent += o.mpdusSent
	c.mpdusDelivered += o.mpdusDelivered
	c.retries += o.retries
	c.queueDrops += o.queueDrops
	c.nativeAcks += o.nativeAcks
	c.nativeBytes += o.nativeBytes
	c.compressedAcks += o.compressedAcks
	c.compressedBytes += o.compressedBytes
	c.resyncs += o.resyncs
	c.decompFailures += o.decompFailures
	c.retransmits += o.retransmits
}

// digest feeds every count into d.
func (c counts) digest(d *digester, name string) {
	d.add(name, float64(c.events), float64(c.tx), float64(c.collided), float64(c.busy),
		float64(c.mpdusSent), float64(c.mpdusDelivered), float64(c.retries), float64(c.queueDrops),
		float64(c.nativeAcks), float64(c.nativeBytes), float64(c.compressedAcks),
		float64(c.compressedBytes), float64(c.resyncs), float64(c.decompFailures),
		float64(c.retransmits))
}

// layerMetrics sets the count-derived per-layer metrics of c, measured
// over simulated time simTime.
func (c counts) layerMetrics(m map[string]float64, simTime sim.Duration) {
	m["sim.events"] = float64(c.events)
	m["channel.tx"] = float64(c.tx)
	m["channel.collided_share"] = ratio(c.collided, c.tx)
	m["channel.busy_pct"] = 100 * float64(c.busy) / float64(simTime)
	m["mac.mpdus_sent"] = float64(c.mpdusSent)
	m["mac.delivered_ratio"] = ratio(c.mpdusDelivered, c.mpdusSent)
	m["mac.retries"] = float64(c.retries)
	m["mac.queue_drops"] = float64(c.queueDrops)
	m["hack.compressed_share"] = ratio(c.compressedAcks, c.compressedAcks+c.nativeAcks)
	m["hack.bytes_per_ack"] = ratio(c.compressedBytes+c.nativeBytes, c.compressedAcks+c.nativeAcks)
	m["hack.resyncs"] = float64(c.resyncs)
	m["rohc.decomp_failures"] = float64(c.decompFailures)
	m["tcp.retransmits"] = float64(c.retransmits)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
