package node

import (
	"testing"

	"tcphack/internal/channel"
	"tcphack/internal/hack"
	"tcphack/internal/sim"
	"tcphack/internal/tcp"
)

// poolModes are the HACK modes whose packet ownership differs: stock
// (natives only), MORE-DATA (held, ridden and retained ACKs, resync
// replays), opportunistic (a held copy next to every native) and timer
// (hold-timeout flushes).
var poolModes = []hack.Mode{hack.ModeOff, hack.ModeMoreData, hack.ModeOpportunistic, hack.ModeTimer}

// lossyTransfers builds the 4-client 802.11n network at 5 % loss, so
// retries, queue drops, BAR give-ups and resyncs all run, and starts a
// transfer of totalBytes (0: unbounded) per client: downloads for the
// first two, uploads for the others, so both the AP's and the
// clients' drivers hold and reconstruct ACKs.
func lossyTransfers(mode hack.Mode, totalBytes uint64) (*Network, []*Flow) {
	cfg := ht150Config(mode, 4, 1)
	cfg.Err = &channel.FixedLoss{Default: 0.05}
	n := New(cfg)
	var flows []*Flow
	for ci := range n.Clients {
		if ci < 2 {
			flows = append(flows, n.StartDownload(ci, totalBytes, 0))
		} else {
			flows = append(flows, n.StartUpload(ci, totalBytes, 0))
		}
	}
	return n, flows
}

// TestPacketPoolSteady: in steady state the pool's outstanding count
// moves with what is in flight but does not grow. Every packet in
// flight belongs to a TCP window, data segments plus at most as many
// ACKs, which bounds the count; a path that drops packets without
// releasing them leaks on every use and leaves that bound within a
// simulated second.
func TestPacketPoolSteady(t *testing.T) {
	def := tcp.DefaultConfig()
	for _, mode := range poolModes {
		t.Run(mode.String(), func(t *testing.T) {
			n, _ := lossyTransfers(mode, 0)
			bound := len(n.Clients) * 2 * int(def.RcvWindow) / def.MSS
			n.Run(3 * sim.Second)
			early := n.pool.Outstanding()
			n.Run(8 * sim.Second)
			late := n.pool.Outstanding()
			if early > bound || late > bound {
				t.Errorf("outstanding %d at 3 s and %d at 8 s, want both within the in-flight bound %d",
					early, late, bound)
			}
		})
	}
}

// TestPacketPoolDrains: once finite transfers finish and the network
// goes quiet, the only packets still out of the pool are the ACKs HACK
// drivers legitimately hold (pending or retained). Every other packet
// built during the run, including those lost to retry limits, full
// queues, resyncs and CRC rejections, has been released.
func TestPacketPoolDrains(t *testing.T) {
	for _, mode := range poolModes {
		t.Run(mode.String(), func(t *testing.T) {
			n, flows := lossyTransfers(mode, 4<<20)
			n.Run(20 * sim.Second)
			for _, f := range flows {
				if !f.Done {
					t.Fatalf("client %d transfer unfinished; the network never went quiet", f.Client)
				}
			}
			held := 0
			for _, b := range n.BSSes {
				for _, c := range b.Clients {
					held += b.AP.Driver.PendingAcks(c.MACAddr) + b.AP.Driver.UnconfirmedAcks(c.MACAddr)
					held += c.Driver.PendingAcks(b.AP.MACAddr) + c.Driver.UnconfirmedAcks(b.AP.MACAddr)
				}
			}
			if got := n.pool.Outstanding(); got != held {
				t.Errorf("%d packets outstanding after the transfers, want %d (the ACKs drivers hold)", got, held)
			}
		})
	}
}
