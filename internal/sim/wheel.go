package sim

import "math/bits"

// Timing-wheel geometry: 7 levels of 1024 slots, 1 ns tick. Level l
// holds timers whose delta from the cursor is in [2^(10l), 2^(10(l+1)))
// — level 0 spans ~1 µs, level 1 ~1 ms, level 2 ~1 s, and level 6
// reaches 2^63-1, so the hierarchy covers the entire non-negative
// int64 Time range and no unsorted overflow list is needed.
const (
	wheelBits   = 10
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 7
)

// wheelLevel is one ring: 1024 intrusive doubly-linked bucket lists
// plus an occupancy bitmap for O(1) next-occupied-slot scans. Lists
// are tail-appended, which keeps every equal-at run in seq order (see
// the ordering note on wheelScheduler).
type wheelLevel struct {
	head   [wheelSlots]*Timer
	tail   [wheelSlots]*Timer
	bitmap [wheelSlots / 64]uint64
	count  int
}

// nextSlot returns the first occupied slot index ≥ from, or -1.
func (lv *wheelLevel) nextSlot(from int) int {
	if from >= wheelSlots {
		return -1
	}
	wi := from >> 6
	word := lv.bitmap[wi] &^ (uint64(1)<<uint(from&63) - 1)
	for {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
		wi++
		if wi >= len(lv.bitmap) {
			return -1
		}
		word = lv.bitmap[wi]
	}
}

// wheelScheduler is the hierarchical timing wheel behind every Scheduler.
//
// Placement: a timer at absolute time `at` lives at the level selected
// by its delta from the cursor, in the slot given by the corresponding
// 10-bit field of `at` itself (absolute addressing, so a slot index
// never needs recomputation as the cursor moves). Buckets are intrusive
// doubly-linked lists threaded through the Timer's wnext/wprev fields,
// so push, remove, and cascade are all allocation-free.
//
// Cursor invariant: cur is 1024-aligned and cur ≤ every pending at.
// findMin is strictly non-mutating; the cursor advances only in popMin,
// to the level-0 window of the verified global minimum. Because Step
// sets now to the popped time and schedule rejects at < now, a push
// below the cursor is impossible (enforced by a defensive panic).
//
// Ordering: buckets are tail-appended, and every path that inserts
// equal-at timers into one bucket does so in increasing seq order —
// direct pushes carry the globally monotonic seq counter, and a
// cascade appends a source bucket's (inductively ordered) equal-at
// runs as contiguous blocks whose seqs all precede any later direct
// push (a same-at timer scheduled before the cascade would have sat
// at a higher level, not the destination). A level-0 slot covers
// exactly one tick (the cursor is 1024-aligned, so its level-0 slot
// is 0 and the level's residency bound keeps each slot single-
// valued), which makes a level-0 bucket's head its (at, seq) minimum
// with no scan. Higher-level candidate buckets are resolved by an
// (at, seq) scan, and across levels candidates are compared by the
// same key, so the strict (at, seq) total order — including ties
// created before or after any cascade — matches the heap oracle.
// Known gap in that argument: a timer's level comes from its delta
// from the cursor, so a timer armed late and close can sit in a
// level-1 bucket while an older timer due at the same instant still
// sits higher up; when the older one cascades in, it lands behind the
// newer one, and bucketMin and the level-0 head then pop the newer
// one first. Few events meet that pattern, but a 10 s TCP simulation
// can hit it, and there the wheel's order differs from the heap's.
//
// The min memo is maintained incrementally: a push replaces it only
// when strictly smaller, a remove invalidates it only when it removes
// the cached timer itself, and cascades (which relocate but never
// add or drop timers) leave it untouched. Steady-state arm/cancel
// churn against a stable minimum — contending stations' backoff
// freezes and response timeouts — therefore never forces a rescan;
// only popping the minimum does, once per event.
type wheelScheduler struct {
	cur      Time // 1024-aligned cursor, ≤ every pending at
	n        int
	minCache *Timer // current (at, seq) minimum; nil when stale
	levels   [wheelLevels]wheelLevel
}

func newWheelScheduler() *wheelScheduler { return &wheelScheduler{} }

func (w *wheelScheduler) len() int { return w.n }

func (w *wheelScheduler) min() Time { return w.findMin().at }

// levelFor maps a delta from the cursor to its wheel level.
func levelFor(delta int64) int {
	if delta < wheelSlots {
		return 0
	}
	return (bits.Len64(uint64(delta)) - 1) / wheelBits
}

// place appends t to the bucket selected by its delta from the current
// cursor (tail insertion preserves the equal-at seq order). Callers
// guarantee t.at >= w.cur.
func (w *wheelScheduler) place(t *Timer) {
	l := levelFor(int64(t.at - w.cur))
	slot := int(uint64(t.at)>>(uint(l)*wheelBits)) & wheelMask
	lv := &w.levels[l]
	t.wlevel = int8(l)
	t.wslot = int16(slot)
	t.wnext = nil
	t.wprev = lv.tail[slot]
	if t.wprev != nil {
		t.wprev.wnext = t
	} else {
		lv.head[slot] = t
		lv.bitmap[slot>>6] |= 1 << uint(slot&63)
	}
	lv.tail[slot] = t
	lv.count++
}

func (w *wheelScheduler) push(t *Timer) {
	if t.at < w.cur {
		// Unreachable: schedule rejects at < now and now >= cur always.
		panic("sim: wheel push below cursor")
	}
	w.place(t)
	t.index = 0
	w.n++
	if mc := w.minCache; mc != nil &&
		(t.at < mc.at || (t.at == mc.at && t.seq < mc.seq)) {
		w.minCache = t
	}
}

func (w *wheelScheduler) remove(t *Timer) {
	lv := &w.levels[t.wlevel]
	if t.wprev != nil {
		t.wprev.wnext = t.wnext
	} else {
		lv.head[t.wslot] = t.wnext
	}
	if t.wnext != nil {
		t.wnext.wprev = t.wprev
	} else {
		lv.tail[t.wslot] = t.wprev
	}
	if lv.head[t.wslot] == nil {
		lv.bitmap[t.wslot>>6] &^= 1 << uint(t.wslot&63)
	}
	t.wnext = nil
	t.wprev = nil
	lv.count--
	w.n--
	t.index = -1
	if t == w.minCache {
		w.minCache = nil
	}
}

// bucketMin scans one bucket list for its (at, seq) minimum — needed
// only at levels ≥ 1, where a slot mixes distinct at values. Equal-at
// runs are already in seq order (tail appends), so the strict `<`
// keeps the first — lowest-seq — element of the winning run.
func bucketMin(t *Timer) *Timer {
	best := t
	for t = t.wnext; t != nil; t = t.wnext {
		if t.at < best.at {
			best = t
		}
	}
	return best
}

// findMin returns the pending timer with the smallest (at, seq) key
// without mutating any wheel state. Callers guarantee w.n > 0.
//
// Per level, slots split cleanly around the cursor's own slot index cl:
// slots > cl hold "forward" timers (same level-(l+1) window as the
// cursor), slots ≤ cl hold "wrapped" timers (the next window) — the
// level's residency bound delta < 2^(10(l+1)) permits nothing further
// out. The first occupied forward slot's bucket therefore holds the
// level minimum, and it is provably smaller than every timer at any
// higher level (which all lie at or beyond the end of the cursor's
// level-(l+1) window), so the scan stops at the first forward hit.
// Wrapped-only levels contribute a candidate (their first occupied slot
// from 0) and the scan continues upward.
func (w *wheelScheduler) findMin() *Timer {
	if w.minCache != nil {
		return w.minCache
	}
	var best *Timer
	for l := 0; l < wheelLevels; l++ {
		lv := &w.levels[l]
		if lv.count == 0 {
			continue
		}
		if l == 0 {
			// The cursor's level-0 slot is 0 (cur is 1024-aligned), so
			// every slot is forward, each covers exactly one tick, and
			// the first occupied slot's head — lowest seq by tail
			// append — is the level minimum outright.
			if sl := lv.nextSlot(0); sl >= 0 {
				best = lv.head[sl]
				break
			}
			continue
		}
		// The cursor's own slot holds no forward timers at levels ≥ 1
		// (a same-window timer there would have delta < 2^(10l) and
		// live lower).
		from := int(uint64(w.cur)>>(uint(l)*wheelBits))&wheelMask + 1
		if sl := lv.nextSlot(from); sl >= 0 {
			if c := bucketMin(lv.head[sl]); best == nil || c.at < best.at ||
				(c.at == best.at && c.seq < best.seq) {
				best = c
			}
			break
		}
		if sl := lv.nextSlot(0); sl >= 0 {
			if c := bucketMin(lv.head[sl]); best == nil || c.at < best.at ||
				(c.at == best.at && c.seq < best.seq) {
				best = c
			}
		}
	}
	w.minCache = best
	return best
}

// advanceTo moves the cursor to base (1024-aligned, ≤ every pending
// at) and cascades: at each level whose cursor slot changed, the slot
// now covering base is drained and its timers re-place by their — now
// smaller — delta, landing in finer levels. Processing levels top-down
// lets a timer cascade through several levels in one pass.
func (w *wheelScheduler) advanceTo(base Time) {
	old := w.cur
	w.cur = base
	for l := wheelLevels - 1; l >= 1; l-- {
		lv := &w.levels[l]
		if lv.count == 0 {
			continue
		}
		sh := uint(l) * wheelBits
		if uint64(old)>>sh == uint64(base)>>sh {
			continue
		}
		slot := int(uint64(base)>>sh) & wheelMask
		t := lv.head[slot]
		if t == nil {
			continue
		}
		lv.head[slot] = nil
		lv.tail[slot] = nil
		lv.bitmap[slot>>6] &^= 1 << uint(slot&63)
		for t != nil {
			next := t.wnext
			lv.count--
			w.place(t)
			t = next
		}
	}
}

func (w *wheelScheduler) popMin() *Timer {
	t := w.findMin()
	if base := t.at &^ Time(wheelMask); base > w.cur {
		w.advanceTo(base)
	}
	w.remove(t)
	return t
}
