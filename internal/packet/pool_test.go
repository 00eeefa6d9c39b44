package packet

import (
	"reflect"
	"testing"
)

// dirty fills every header field of a pooled TCP packet, SACK storage
// included.
func dirty(p *Packet) {
	p.IP = IPv4{TOS: 1, ID: 2, TTL: 3, Protocol: ProtoTCP, Src: IP(1, 2, 3, 4), Dst: IP(5, 6, 7, 8), Length: 9}
	p.PayloadLen = 1448
	*p.TCP = TCP{
		SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: FlagACK | FlagPSH, Window: 5, Urgent: 6,
		Opt: TCPOptions{MSS: 1460, WindowScale: 8, SACKPermitted: true, HasTimestamps: true, TSVal: 7, TSEcr: 8,
			SACKBlocks: p.TCP.Opt.SACKBlocks},
	}
	for i := 0; i < 4; i++ {
		p.TCP.Opt.SACKBlocks = append(p.TCP.Opt.SACKBlocks, [2]uint32{uint32(10 * i), uint32(10*i + 5)})
	}
}

func TestPoolGetReinitializes(t *testing.T) {
	var pl Pool
	p := pl.Get(ProtoTCP)
	dirty(p)
	p.Release()

	q := pl.Get(ProtoTCP)
	if q != p {
		t.Fatal("Get did not recycle the released packet")
	}
	if q.IP != (IPv4{Protocol: ProtoTCP}) || q.PayloadLen != 0 || q.UDP != nil {
		t.Errorf("IP/payload not reinitialized: %+v payload=%d udp=%v", q.IP, q.PayloadLen, q.UDP)
	}
	if q.TCP == nil {
		t.Fatal("TCP header missing")
	}
	if want := (TCP{Opt: TCPOptions{SACKBlocks: q.TCP.Opt.SACKBlocks}}); !reflect.DeepEqual(*q.TCP, want) {
		t.Errorf("TCP header not reinitialized: %+v", *q.TCP)
	}
	if len(q.TCP.Opt.SACKBlocks) != 0 || cap(q.TCP.Opt.SACKBlocks) != 4 {
		t.Errorf("SACK storage len %d cap %d, want 0 and 4 inline",
			len(q.TCP.Opt.SACKBlocks), cap(q.TCP.Opt.SACKBlocks))
	}
	if q.sack != [4][2]uint32{} {
		t.Errorf("inline SACK storage not cleared: %v", q.sack)
	}
	// Four SACK blocks fit the inline storage: appending them must not
	// move the list off the packet.
	for i := 0; i < 4; i++ {
		q.TCP.Opt.SACKBlocks = append(q.TCP.Opt.SACKBlocks, [2]uint32{1, 2})
	}
	if &q.TCP.Opt.SACKBlocks[0] != &q.sack[0] {
		t.Error("four SACK blocks left the inline storage")
	}

	// The same object serves a UDP datagram with no TCP state left.
	q.Release()
	u := pl.Get(ProtoUDP)
	if u != p || u.TCP != nil || u.UDP == nil || *u.UDP != (UDP{}) || u.IP.Protocol != ProtoUDP {
		t.Errorf("UDP reuse not clean: tcp=%v udp=%+v proto=%d", u.TCP, u.UDP, u.IP.Protocol)
	}
}

func TestPoolReleaseScrubs(t *testing.T) {
	var pl Pool
	p := pl.Get(ProtoTCP)
	dirty(p)
	p.Retain()
	p.Release()
	if p.TCP == nil || p.TCP.Seq != 3 {
		t.Fatal("a retained packet was scrubbed while a holder remained")
	}
	if pl.Outstanding() != 1 {
		t.Errorf("outstanding = %d with one holder, want 1", pl.Outstanding())
	}
	p.Release()
	if p.TCP != nil || p.UDP != nil {
		t.Error("released packet keeps a header pointer")
	}
	if p.IP != (IPv4{}) || p.PayloadLen != 0 || !reflect.DeepEqual(p.tcp, TCP{}) || p.sack != [4][2]uint32{} {
		t.Errorf("released packet not zeroed: %+v", *p)
	}
	if pl.Outstanding() != 0 {
		t.Errorf("outstanding = %d after the last release, want 0", pl.Outstanding())
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.Get(ProtoUDP)
	p.Release()
	for name, f := range map[string]func(){"Release": p.Release, "Retain": p.Retain} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released packet did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNilPoolNeverRecycles(t *testing.T) {
	var pl *Pool
	p := pl.Get(ProtoTCP)
	if p.TCP == nil || p.IP.Protocol != ProtoTCP {
		t.Fatalf("nil-pool Get returned %+v", p)
	}
	p.TCP.Seq = 42
	p.Retain()
	p.Release()
	p.Release()
	p.Release() // never panics: nothing is counted
	if p.TCP == nil || p.TCP.Seq != 42 {
		t.Error("Release touched a nil-pool packet")
	}
	if q := pl.Get(ProtoTCP); q == p {
		t.Error("nil pool recycled a packet")
	}
	if pl.Outstanding() != 0 {
		t.Error("nil pool reports outstanding packets")
	}
	// Hand-built packets behave the same.
	lit := &Packet{IP: IPv4{Protocol: ProtoUDP}, UDP: &UDP{DstPort: 9}}
	lit.Release()
	lit.Release()
	if lit.UDP == nil || lit.UDP.DstPort != 9 {
		t.Error("Release touched a hand-built packet")
	}
}

func TestPoolWarmGetAllocFree(t *testing.T) {
	var pl Pool
	pl.Get(ProtoTCP).Release()
	allocs := testing.AllocsPerRun(1000, func() {
		p := pl.Get(ProtoTCP)
		p.TCP.Opt.SACKBlocks = append(p.TCP.Opt.SACKBlocks, [2]uint32{1, 2}, [2]uint32{3, 4})
		p.Release()
	})
	if allocs != 0 {
		t.Errorf("warm Get/Release allocated %.1f times per run, want 0", allocs)
	}
}

func TestCloneLeavesPool(t *testing.T) {
	var pl Pool
	p := pl.Get(ProtoTCP)
	p.TCP.Opt.SACKBlocks = append(p.TCP.Opt.SACKBlocks, [2]uint32{1, 2})
	q := p.Clone()
	p.Release()
	if q.TCP == nil || len(q.TCP.Opt.SACKBlocks) != 1 || q.TCP.Opt.SACKBlocks[0] != [2]uint32{1, 2} {
		t.Errorf("clone lost state when the original was released: %+v", q.TCP)
	}
	q.Release() // a clone belongs to no pool
	if pl.Outstanding() != 0 || q.TCP == nil {
		t.Error("clone is tied to the original's pool")
	}
}
