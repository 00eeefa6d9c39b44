package tcp

import (
	"math/rand"
	"slices"
	"testing"
)

// insertIntervalRef is insertInterval before it merged in place: the
// same classify-then-insert rule, with iv inserted into a second,
// freshly allocated slice. It is the reference the in-place version is
// held to.
func insertIntervalRef(list []interval, iv interval) []interval {
	out := list[:0]
	for _, cur := range list {
		switch {
		case seqGT(iv.s, cur.e):
			out = append(out, cur) // cur entirely before iv
		case seqGT(cur.s, iv.e):
			out = append(out, cur) // cur entirely after iv (order restored below)
		default: // overlap or adjacency: absorb
			if seqGT(iv.s, cur.s) {
				iv.s = cur.s
			}
			if seqGT(cur.e, iv.e) {
				iv.e = cur.e
			}
		}
	}
	res := make([]interval, 0, len(out)+1)
	inserted := false
	for _, cur := range out {
		if !inserted && seqGT(cur.s, iv.s) {
			res = append(res, iv)
			inserted = true
		}
		res = append(res, cur)
	}
	if !inserted {
		res = append(res, iv)
	}
	return res
}

// randomSpan returns an interval of 1 to 3 segments starting within
// 12 segments of base, so spans overlap, abut or stand apart.
func randomSpan(rng *rand.Rand, base uint32) interval {
	const seg = 1460
	s := base + uint32(rng.Intn(12))*seg
	return interval{s, s + uint32(1+rng.Intn(3))*seg}
}

// TestInsertIntervalMatchesReference runs the in-place insertInterval
// and the allocating reference side by side on seeded random interval
// lists, comparing every result element by element. Each list is built
// the way the receiver builds ooo: insert the newest span, then move
// the block holding it to the front as noteSACK does, so lists are
// newest-first, not sorted. Half the lists start just below the
// sequence-space wrap.
func TestInsertIntervalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	unsorted := 0
	for trial := 0; trial < 2000; trial++ {
		base := rng.Uint32()
		if trial%2 == 0 {
			base = 1<<32 - 6*1460
		}
		var got, want []interval
		for step := 0; step < 10; step++ {
			iv := randomSpan(rng, base)
			want = insertIntervalRef(slices.Clone(want), iv)
			got = insertInterval(got, iv)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: insert %v: got %v, want %v", trial, step, iv, got, want)
			}
			if rng.Intn(2) == 0 {
				moveToFront(got, iv)
				moveToFront(want, iv)
			}
			if !slices.IsSortedFunc(got, func(a, b interval) int { return int(int32(a.s - b.s)) }) {
				unsorted++
			}
		}
	}
	if unsorted == 0 {
		t.Fatal("no unsorted list was generated")
	}
}

// moveToFront is noteSACK's reordering: the block containing seg moves
// to the front, the others keep their order.
func moveToFront(list []interval, seg interval) {
	for i, iv := range list {
		if !seqGT(iv.s, seg.s) && seqGE(iv.e, seg.e) {
			copy(list[1:i+1], list[:i])
			list[0] = iv
			return
		}
	}
}

// TestInsertIntervalAllocFree pins insertInterval at zero allocations
// when the list's array has room for the inserted interval.
func TestInsertIntervalAllocFree(t *testing.T) {
	ooo := []interval{{50, 60}, {10, 20}, {30, 40}} // newest first
	l := make([]interval, 0, len(ooo)+1)
	if n := testing.AllocsPerRun(100, func() {
		l = insertInterval(append(l[:0], ooo...), interval{70, 80})
	}); n != 0 {
		t.Errorf("insertInterval: %v allocs/op, want 0", n)
	}
}

// BenchmarkInsertInterval measures one insertion into a newest-first
// list of three blocks that bridges two of them.
func BenchmarkInsertInterval(b *testing.B) {
	ooo := []interval{{50, 60}, {10, 20}, {30, 40}}
	l := make([]interval, 0, len(ooo)+1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l = insertInterval(append(l[:0], ooo...), interval{20, 30})
	}
}
