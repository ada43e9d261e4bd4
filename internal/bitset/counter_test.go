package bitset

import (
	"testing"

	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// addBits is the reference the Counter must match: one position at a
// time, ignoring bits past n.
func addBits(counts []int64, mask []uint64) {
	for i := range counts {
		counts[i] += int64(mask[i>>6] >> (uint(i) & 63) & 1)
	}
}

// countMasks feeds masks through a Counter, flushing exactly when Add
// says it is full, and checks the result against addBits. It flushes
// early (as a mid-round read would) after every flushAt-th mask when
// flushAt > 0.
func countMasks(t testing.TB, n int, masks [][]uint64, flushAt int) {
	t.Helper()
	c := NewCounter(n)
	got := make([]int64, n)
	want := make([]int64, n)
	held := 0
	for i, m := range masks {
		addBits(want, m)
		held++
		full := c.Add(m)
		if full != (held == counterCap) {
			t.Fatalf("n=%d mask %d: Add reported full=%v with %d masks held", n, i, full, held)
		}
		if full || (flushAt > 0 && (i+1)%flushAt == 0) {
			c.FlushInto(got)
			held = 0
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("n=%d after mask %d: position %d counts %d, want %d", n, i, j, got[j], want[j])
				}
			}
		}
	}
	c.FlushInto(got)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("n=%d after %d masks: position %d counts %d, want %d", n, len(masks), j, got[j], want[j])
		}
	}
}

// Mask densities: random, every position (tail bits included), sparse.
const (
	halfDense = iota
	allSet
	sparse
)

func randomMasks(r *randsrc.Rand, n, count, density int) [][]uint64 {
	masks := make([][]uint64, count)
	for i := range masks {
		m := make([]uint64, (n+63)/64)
		for w := range m {
			switch density {
			case halfDense:
				m[w] = r.Uint64()
			case allSet:
				m[w] = ^uint64(0)
			case sparse:
				m[w] = r.Uint64() & r.Uint64() & r.Uint64()
			}
		}
		masks[i] = m
	}
	return masks
}

func TestCounterMatchesBitwiseAdd(t *testing.T) {
	r := randsrc.NewSeeded(11)
	for _, n := range []int{1, 2, 63, 64, 65, 130, 360} {
		for _, count := range []int{1, counterCap - 1, counterCap, counterCap + 1, 1000} {
			for _, density := range []int{halfDense, allSet, sparse} {
				masks := randomMasks(r, n, count, density)
				// flushAt 1..9 flushes with every count of held,
				// not yet folded masks (0–7); 0 flushes only when
				// full, at 255 = 31·8 + 7.
				for _, flushAt := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 97} {
					countMasks(t, n, masks, flushAt)
				}
			}
		}
	}
}

func TestCounterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("zero length", func() { NewCounter(0) })
	mustPanic("short mask", func() { NewCounter(65).Add([]uint64{1}) })
	mustPanic("short counts", func() {
		c := NewCounter(65)
		c.Add([]uint64{1, 1})
		c.FlushInto(make([]int64, 64))
	})
	mustPanic("add past full", func() {
		c := NewCounter(3)
		for i := 0; i <= counterCap; i++ {
			c.Add([]uint64{7})
		}
	})
}

func TestCounterZeroAlloc(t *testing.T) {
	c := NewCounter(360)
	counts := make([]int64, 360)
	mask := randomMasks(randsrc.NewSeeded(3), 360, 1, halfDense)[0]
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 2*counterCap; i++ {
			if c.Add(mask) {
				c.FlushInto(counts)
			}
		}
		c.FlushInto(counts)
	})
	if allocs != 0 {
		t.Errorf("Add/FlushInto allocate %v times per run, want 0", allocs)
	}
}

// FuzzCounter checks the Counter against addBits on arbitrary masks: the
// first byte picks the length, the second how often to flush early, and
// the rest fill the masks eight bytes per word (repeated to cross the
// flush boundary).
func FuzzCounter(f *testing.F) {
	f.Add([]byte{65, 0, 0xFF, 0x01, 0x80})
	f.Add([]byte{1, 3, 0xAA})
	f.Add([]byte{200, 17, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	for flushAt := byte(1); flushAt <= 8; flushAt++ {
		f.Add([]byte{130, flushAt, 0x5A, 0xC3, 0xFF, 0x00, 0x81})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0]) + 1
		flushAt := int(data[1])
		words := (n + 63) / 64
		src := data[2:]
		masks := make([][]uint64, 2*counterCap+3)
		k := 0
		for i := range masks {
			m := make([]uint64, words)
			for w := range m {
				for b := 0; b < 8; b++ {
					m[w] |= uint64(src[k%len(src)]) << (8 * b)
					k++
				}
			}
			masks[i] = m
		}
		countMasks(t, n, masks, flushAt)
	})
}

func BenchmarkCounterAdd(b *testing.B) {
	const n = 360
	c := NewCounter(n)
	counts := make([]int64, n)
	masks := randomMasks(randsrc.NewSeeded(5), n, 64, halfDense)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Add(masks[i&63]) {
			c.FlushInto(counts)
		}
	}
}
