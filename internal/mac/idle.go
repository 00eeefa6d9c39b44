package mac

import (
	"tcphack/internal/channel"
	"tcphack/internal/sim"
)

// overheard is a medium's record of what its idle stations overheard.
// A station with nothing to do (rest gives the rule) stops listening,
// so a frame costs the medium less for it, and a station that wakes
// (wake) reads back exactly the state the skipped callbacks would have
// left it in.
//
// Under the general engine an idle station takes no carrier edges but
// keeps its deliveries, since outcomes differ per receiver. The medium
// records each radio's carrier history, and the station catches up on
// the edges it missed (catchUp) whenever its carrier state is read: at
// a NAV extension, at the lapse of its NAV and when it wakes.
//
// In a single collision domain an idle station gets no deliveries
// either, so each frame costs the medium nothing for it, and this
// record stands in for it: the medium reports every finished
// transmission here once, and a station that wakes reads back its
// carrier, NAV, EIFS and idle-clock state. All of that is medium-wide.
// An idle station is never a frame's source, and it wakes before any
// frame addressed to it is delivered, so it overhears every other frame
// with the outcome every overhearer gets:
//
//   - physBusy and physBusyAt follow the medium's Carrier;
//   - eifs is the outcome of the last frame that finished since the
//     station left, or its own flag if none did;
//   - its NAV is the larger of its own and the largest NAV end of the
//     data frames and BARs decoded since it left;
//   - idleAt moves at each idle edge at or after its NAV end and at the
//     lapse of its NAV when the medium is idle.
//
// Idle stations whose NAV and pending lapse are equal evolve alike
// from then on, so they share a root: one NAV end, the lapse that ends
// it, and the latest idle-clock start (val) seen since. A frame that
// extends idle NAVs merges every root below its NAV end into one, so
// there are only a few roots. A station's idleAt is its root's val if
// that was set after the station joined the root (its gen), and its
// own otherwise; members of the smaller roots of a merge first take
// their idleAt into their own dcf, since the merged root's val
// predates them. Anything that ends one frame's NAV early, such as a
// NAV reset on an overheard response, is one update here too: the root
// whose NAV a frame set is that frame's lapse's idleRoot.
type overheard struct {
	medium *channel.Medium
	sched  *sim.Scheduler
	// off is set when no station may stop listening: two stations
	// share an address.
	off bool

	sta []idleStation // by radio index
	// byAddr[a-addrBase] is 1 + the radio index of the station with
	// address a, 0 for none.
	byAddr   []int32
	addrBase Addr

	roots    []navRoot // records, live or free
	live     []int32   // indices of the live roots
	rootFree int32     // head of the free roots, linked by next; -1 for none

	gen      uint64 // numbers the idle-clock updates and the joins
	edges    uint64 // the medium's carrier edges already applied
	frames   uint64 // transmissions finished while any station was idle
	collided bool   // the outcome of the last of them
}

// idleStation is one station's entry.
type idleStation struct {
	st *Station
	// While the station is idle in a single collision domain: its root,
	// its neighbours in the root's member list (radio indices, -1 at the
	// ends), the gen at which it joined the root, and the medium's
	// finished frames when it left. edges is its carrier history's edge
	// count when it left, or, under the general engine, when it last
	// caught up.
	root       int32
	prev, next int32
	joined     uint64
	frames     uint64
	edges      uint64
}

// navRoot is the shared state of idle stations whose NAV and lapse are
// equal.
type navRoot struct {
	nav   sim.Time
	lapse *navLapse // ends nav; nil once it fired or if none is pending
	// val is the latest idle-clock start of the members while in this
	// root, set at gen valGen (0 for never).
	val    sim.Time
	valGen uint64
	head   int32 // first member, by radio index
	count  int32
	next   int32 // free-list link
}

// overheardOf returns m's record, making it m's Overhearer on first
// use, or nil when something else stands in for m's idle radios.
func overheardOf(m *channel.Medium, sched *sim.Scheduler) *overheard {
	if m.Overhearer == nil {
		m.Overhearer = &overheard{medium: m, sched: sched, rootFree: -1}
	}
	o, _ := m.Overhearer.(*overheard)
	return o
}

// register sizes the record for st, just attached, so that nothing it
// holds grows while stations leave and wake. A second station with the
// same address keeps every station listening: the record could not
// tell which one a frame wakes.
func (o *overheard) register(st *Station) {
	i := st.RadioIndex()
	for len(o.sta) <= i {
		o.sta = append(o.sta, idleStation{root: -1})
	}
	o.sta[i].st = st
	r := int32(len(o.roots))
	o.roots = append(o.roots, navRoot{next: o.rootFree})
	o.rootFree = r
	if cap(o.live) < len(o.roots) {
		live := make([]int32, len(o.live), 2*len(o.roots))
		copy(live, o.live)
		o.live = live
	}
	a := st.cfg.Addr
	if len(o.byAddr) == 0 {
		o.addrBase = a
	}
	if a < o.addrBase {
		wider := make([]int32, len(o.byAddr)+int(o.addrBase-a))
		copy(wider[o.addrBase-a:], o.byAddr)
		o.byAddr, o.addrBase = wider, a
	}
	for len(o.byAddr) <= int(a-o.addrBase) {
		o.byAddr = append(o.byAddr, 0)
	}
	if o.byAddr[a-o.addrBase] != 0 && !o.off {
		o.off = true
		for _, e := range o.sta {
			if e.st != nil && (e.st.dcf.away || e.st.dcf.deaf) {
				o.wake(e.st)
			}
		}
	}
	o.byAddr[a-o.addrBase] = int32(i) + 1
}

// station returns the station with address a, or nil.
func (o *overheard) station(a Addr) *Station {
	if k := int(a) - int(o.addrBase); uint(k) < uint(len(o.byAddr)) {
		if i := o.byAddr[k]; i != 0 {
			return o.sta[i-1].st
		}
	}
	return nil
}

// domain returns the single collision domain's carrier history, which
// every radio shares.
func (o *overheard) domain() channel.Carrier { return o.medium.Carrier(0) }

// sync applies the medium's idle edge, if one came since the last
// touch, to every root whose NAV it does not precede. Every change to
// the roots syncs first, and only a finished frame, which is a touch
// while any station is idle, ends a busy period, so at most one edge
// is pending and no root changed since it.
func (o *overheard) sync() {
	c := o.domain()
	if c.Edges == o.edges {
		return
	}
	idleEdge := c.Edges-o.edges >= 2 || !c.Busy
	o.edges = c.Edges
	if !idleEdge {
		return
	}
	o.gen++
	for _, ri := range o.live {
		if r := &o.roots[ri]; r.nav <= c.IdleAt {
			r.val, r.valGen = c.IdleAt, o.gen
		}
	}
}

// leave takes st, which has nothing to do, out of the medium's fan-out.
func (o *overheard) leave(st *Station) {
	i := st.RadioIndex()
	d := &st.dcf
	e := &o.sta[i]
	if !o.medium.StopListening(i) {
		// The general engine: st keeps its deliveries and catches up on
		// its carrier history.
		d.deaf = true
		e.edges = o.medium.Carrier(i).Edges
		return
	}
	o.sync()
	d.away = true
	e.joined, e.frames, e.edges = o.gen, o.frames, o.domain().Edges
	l := d.lapse
	ri := int32(-1)
	if l != nil {
		l.leave(d)
		ri = l.idleRoot - 1
	} else {
		for _, r := range o.live {
			if o.roots[r].lapse == nil && o.roots[r].nav == d.navUntil {
				ri = r
				break
			}
		}
	}
	if ri < 0 {
		ri = o.newRoot(d.navUntil, l)
	}
	o.link(i, ri)
}

// newRoot returns a live root with no members for nav and lapse l.
func (o *overheard) newRoot(nav sim.Time, l *navLapse) int32 {
	ri := o.rootFree
	r := &o.roots[ri]
	o.rootFree = r.next
	*r = navRoot{nav: nav, lapse: l, head: -1}
	if l != nil {
		l.idleRoot = ri + 1
	}
	o.live = append(o.live, ri)
	return ri
}

// link adds station i to root ri's members.
func (o *overheard) link(i int, ri int32) {
	e, r := &o.sta[i], &o.roots[ri]
	e.root, e.prev, e.next = ri, -1, r.head
	if r.head >= 0 {
		o.sta[r.head].prev = int32(i)
	}
	r.head = int32(i)
	r.count++
}

// unlink removes station i from its root, freeing the root when it
// empties.
func (o *overheard) unlink(i int) {
	e := &o.sta[i]
	ri := e.root
	r := &o.roots[ri]
	if e.prev >= 0 {
		o.sta[e.prev].next = e.next
	} else {
		r.head = e.next
	}
	if e.next >= 0 {
		o.sta[e.next].prev = e.prev
	}
	e.root = -1
	if r.count--; r.count == 0 {
		o.freeRoot(ri)
	}
}

// freeRoot returns live root ri to the free list.
func (o *overheard) freeRoot(ri int32) {
	r := &o.roots[ri]
	if r.lapse != nil {
		r.lapse.idleRoot = 0
	}
	*r = navRoot{next: o.rootFree}
	o.rootFree = ri
	for k, x := range o.live {
		if x == ri {
			last := len(o.live) - 1
			o.live[k] = o.live[last]
			o.live = o.live[:last]
			break
		}
	}
}

// wake puts st, which is idle, back into the medium's fan-out with the
// state the callbacks it missed would have left it in.
func (o *overheard) wake(st *Station) {
	i := st.RadioIndex()
	d := &st.dcf
	if d.deaf {
		o.catchUp(st)
		d.deaf = false
		o.medium.Listen(i)
		return
	}
	o.sync()
	e := &o.sta[i]
	d.missedCarrier(o.domain(), e.edges)
	if o.frames != e.frames {
		d.eifs = o.collided
	}
	r := &o.roots[e.root]
	d.navUntil = r.nav
	if r.valGen > e.joined {
		d.idleAt = r.val
	}
	if r.lapse != nil {
		r.lapse.insert(d)
	}
	o.unlink(i)
	d.away = false
	o.medium.Listen(i)
}

// Overhear implements channel.Overhearer: tx finished with outcome at
// every radio but its source. It wakes the addressee of a decoded
// frame before the medium delivers it, and applies the frame to every
// idle station.
func (o *overheard) Overhear(tx *channel.Transmission, outcome channel.Outcome) {
	o.sync()
	var dur sim.Duration
	nav := false
	if outcome == channel.RxOK {
		var to Addr
		switch f := tx.Frame.(type) {
		case *DataFrame:
			to, dur, nav = f.To, f.Dur, true
		case *BARFrame:
			to, dur, nav = f.To, f.Dur, true
		case *AckFrame:
			to = f.To
		}
		// The addressee wakes with the state before this frame: the
		// medium delivers the frame itself to it.
		if st := o.station(to); st != nil && st.dcf.away {
			o.wake(st)
		}
	}
	o.frames++
	o.collided = outcome != channel.RxOK
	if nav {
		o.extend(o.sched.Now()+dur, tx)
	}
}

// extend raises every idle NAV below t, the NAV end tx carries, to t:
// the roots below t merge into the largest of them, which takes tx's
// lapse. As setNAV does for a listening station, the first NAV the
// frame extends posts the lapse.
func (o *overheard) extend(t sim.Time, tx *channel.Transmission) {
	into := int32(-1)
	for _, ri := range o.live {
		if r := &o.roots[ri]; r.nav < t && (into < 0 || r.count > o.roots[into].count) {
			into = ri
		}
	}
	if into < 0 {
		return
	}
	l := tx.Source.(*Station).lapseFor(tx.ID, t)
	for k := 0; k < len(o.live); {
		ri := o.live[k]
		r := &o.roots[ri]
		if ri == into || r.nav >= t {
			k++
			continue
		}
		// Members of a merged root keep the idle clock they had: the
		// surviving root's val predates them.
		for i := r.head; i >= 0; {
			e := &o.sta[i]
			next := e.next
			if r.valGen > e.joined {
				e.st.dcf.idleAt = r.val
			}
			e.joined = o.gen
			r.count--
			o.link(int(i), into)
			i = next
		}
		o.freeRoot(ri) // swaps another live root into slot k
	}
	r := &o.roots[into]
	if r.lapse != nil {
		r.lapse.idleRoot = 0
	}
	r.nav, r.lapse = t, l
	l.idleRoot = into + 1
}

// lapsed records that lapse l, which ends the NAV of root l.idleRoot,
// fired: as recomputeIdle does for each member, the idle clock starts
// now if the medium is idle.
func (o *overheard) lapsed(l *navLapse) {
	o.sync()
	r := &o.roots[l.idleRoot-1]
	if !o.domain().Busy {
		o.gen++
		r.val, r.valGen = o.sched.Now(), o.gen
	}
	r.lapse, l.idleRoot = nil, 0
}

// catchUp applies the carrier edges that st, idle under the general
// engine, missed since it left or last caught up. Its NAV has not
// changed since, as setNAV catches up first, so the last missed idle
// edge started its idle clock iff it came at or after the NAV's end,
// as onPhysIdle would have decided.
func (o *overheard) catchUp(st *Station) {
	i := st.RadioIndex()
	c, e, d := o.medium.Carrier(i), &o.sta[i], &st.dcf
	if d.missedCarrier(c, e.edges) && c.IdleAt >= d.navUntil {
		d.idleAt = c.IdleAt
	}
	e.edges = c.Edges
}
