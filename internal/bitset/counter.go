package bitset

import (
	"fmt"
	"math/bits"
)

// CounterBits is the depth B of a Counter's bit-sliced counters: each
// position counts up to 2^B − 1 masks before the counter must be flushed.
const CounterBits = 8

// counterCap is the number of Adds a Counter holds between flushes.
const counterCap = 1<<CounterBits - 1

// Counter accumulates n-bit masks into per-position counts, 64 positions
// per word operation. It keeps a bit-sliced (vertical) counter per 64-bit
// word of the mask: plane j of word w holds bit j of the running count of
// each position in w, and Add ripples the mask through the planes as a
// carry-save increment. After counterCap Adds the planes could overflow,
// so Add reports the counter full and the caller moves the held counts
// into a dense []int64 with FlushInto.
type Counter struct {
	n       int
	tail    uint64 // valid-bit mask of the last word
	planes  [][CounterBits]uint64
	pending int // Adds held since the last flush
}

// NewCounter returns an empty counter over n-bit masks. It panics if
// n < 1.
func NewCounter(n int) *Counter {
	if n < 1 {
		panic("bitset: counter needs at least one position")
	}
	tail := ^uint64(0)
	if r := uint(n) % 64; r != 0 {
		tail = 1<<r - 1
	}
	return &Counter{n: n, tail: tail, planes: make([][CounterBits]uint64, (n+63)/64)}
}

// Words returns the number of 64-bit words a mask must have.
func (c *Counter) Words() int { return len(c.planes) }

// Add counts one mask: every set bit i < n adds 1 to position i; bits
// at positions ≥ n are ignored. mask must have Words() words. Add
// returns true when the counter holds as many masks as it can, and then
// FlushInto must run before the next Add (which panics otherwise).
//
//loloha:noalloc
func (c *Counter) Add(mask []uint64) bool {
	if c.pending == counterCap {
		panic("bitset: Add on a full counter; FlushInto first")
	}
	if len(mask) != len(c.planes) {
		panic(fmt.Sprintf("bitset: %d-word mask for a %d-word counter", len(mask), len(c.planes)))
	}
	last := len(mask) - 1
	for w := range c.planes {
		m := mask[w]
		if w == last {
			m &= c.tail
		}
		// Ripple-carry increment of the 64 vertical counters: plane j
		// takes the carry, the carry keeps the positions whose bit j was
		// already set. The pending bound keeps every carry below plane B.
		// The ripple runs all B planes: across 64 positions some carry
		// almost always survives, so an early exit would only mispredict.
		p := &c.planes[w]
		for j := range p {
			t := p[j]
			p[j] = t ^ m
			m &= t
		}
	}
	c.pending++
	return c.pending == counterCap
}

// FlushInto adds the held per-position counts into counts, which must
// have length n, and empties the counter.
//
//loloha:noalloc
func (c *Counter) FlushInto(counts []int64) {
	if len(counts) != c.n {
		panic(fmt.Sprintf("bitset: counts length %d != counter positions %d", len(counts), c.n))
	}
	if c.pending == 0 {
		return
	}
	for w := range c.planes {
		p := &c.planes[w]
		base := w << 6
		for j := 0; j < CounterBits; j++ {
			for b := p[j]; b != 0; b &= b - 1 {
				counts[base+bits.TrailingZeros64(b)] += 1 << j
			}
			p[j] = 0
		}
	}
	c.pending = 0
}
