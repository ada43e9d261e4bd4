package bitset

import "fmt"

// CounterBits is the depth B of a Counter's bit-sliced counters: each
// position counts up to 2^B − 1 masks before the counter must be flushed.
const CounterBits = 8

// counterCap is the number of Adds a Counter holds between flushes.
const counterCap = 1<<CounterBits - 1

// foldWidth is the number of masks a Counter holds per word and folds
// into its planes at once.
const foldWidth = 8

// Counter accumulates n-bit masks into per-position counts, 64 positions
// per word operation. It keeps a bit-sliced (vertical) counter per 64-bit
// word of the mask: plane j of word w holds bit j of the running count of
// each position in w. Add holds masks until it has eight, then folds
// them in with a Harley–Seal carry-save tree (Muła, Kurz & Lemire,
// arXiv:1611.07612): planes 0–2 act as the tree's ones, twos and fours
// accumulators, and only the eights carry ripples through the upper
// planes. After counterCap Adds the planes could overflow, so Add reports
// the counter full and the caller moves the held counts into a dense
// []int64 with FlushInto.
type Counter struct {
	n       int
	words   []counterWord
	pending int // Adds since the last flush, held masks included
}

// counterWord is one 64-position word of a Counter: its count planes and
// the masks held for the next fold.
type counterWord struct {
	planes [CounterBits]uint64
	held   [foldWidth]uint64
}

// NewCounter returns an empty counter over n-bit masks. It panics if
// n < 1.
func NewCounter(n int) *Counter {
	if n < 1 {
		panic("bitset: counter needs at least one position")
	}
	return &Counter{n: n, words: make([]counterWord, (n+63)/64)}
}

// Words returns the number of 64-bit words a mask must have.
func (c *Counter) Words() int { return len(c.words) }

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
	if len(mask) != len(c.words) {
		panic(fmt.Sprintf("bitset: %d-word mask for a %d-word counter", len(mask), len(c.words)))
	}
	// Bits past n are counted like the rest and dropped by FlushInto:
	// the vertical counters never carry from one position to another.
	slot := uint(c.pending) % foldWidth
	words := c.words[:len(mask)]
	for w, m := range mask {
		words[w].held[slot] = m
	}
	if slot == foldWidth-1 {
		c.fold()
	}
	c.pending++
	return c.pending == counterCap
}

// csa is a carry-save adder: it returns the carry and sum bits of
// a + b + c at every position.
//
//loloha:noalloc
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// fold adds the eight held masks into the planes. A tree of seven
// carry-save adders reduces the eight masks into planes 0–2 and one
// eights carry, which ripples through planes 3 and up. The pending
// bound keeps that carry below plane B.
//
//loloha:noalloc
func (c *Counter) fold() {
	words := c.words
	for w := range words {
		cw := &words[w]
		h := &cw.held
		p := &cw.planes
		ones, twos, fours := p[0], p[1], p[2]
		var twosA, twosB, foursA, foursB, eights uint64
		twosA, ones = csa(ones, h[0], h[1])
		twosB, ones = csa(ones, h[2], h[3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, h[4], h[5])
		twosB, ones = csa(ones, h[6], h[7])
		foursB, twos = csa(twos, twosA, twosB)
		eights, fours = csa(fours, foursA, foursB)
		p[0], p[1], p[2] = ones, twos, fours
		for j := 3; j < CounterBits; j++ {
			t := p[j]
			p[j] = t ^ eights
			eights &= t
		}
	}
}

// ripple adds one mask into a word's planes with a ripple-carry
// increment of its 64 vertical counters: plane j takes the carry, the
// carry keeps the positions whose bit j was already set.
//
//loloha:noalloc
func ripple(p *[CounterBits]uint64, m uint64) {
	for j := range p {
		t := p[j]
		p[j] = t ^ m
		m &= t
	}
}

// transpose8 transposes the 8×8 bit matrix whose row r is byte r of x
// (Warren, Hacker's Delight §7-3): bit c of byte r moves to bit r of
// byte c.
//
//loloha:noalloc
func transpose8(x uint64) uint64 {
	x = x&0xAA55AA55AA55AA55 | x&0x00AA00AA00AA00AA<<7 | x>>7&0x00AA00AA00AA00AA
	x = x&0xCCCC3333CCCC3333 | x&0x0000CCCC0000CCCC<<14 | x>>14&0x0000CCCC0000CCCC
	return x&0xF0F0F0F00F0F0F0F | x&0x00000000F0F0F0F0<<28 | x>>28&0x00000000F0F0F0F0
}

// FlushInto adds the held per-position counts into counts, which must
// have length n, and empties the counter. Masks still waiting for a fold
// go in through the plain ripple first.
//
//loloha:noalloc
func (c *Counter) FlushInto(counts []int64) {
	if len(counts) != c.n {
		panic(fmt.Sprintf("bitset: counts length %d != counter positions %d", len(counts), c.n))
	}
	if c.pending == 0 {
		return
	}
	held := c.pending % foldWidth
	words := c.words
	for w := range words {
		cw := &words[w]
		p := &cw.planes
		for _, m := range cw.held[:held] {
			ripple(p, m)
		}
		// With CounterBits = 8 a count fits a byte: byte b of the
		// eight planes is an 8×8 bit matrix whose transpose holds the
		// counts of positions 8b..8b+7, one per byte.
		var t [8]uint64
		for b := range t {
			s := 8 * uint(b)
			t[b] = transpose8(p[0]>>s&0xFF | p[1]>>s&0xFF<<8 | p[2]>>s&0xFF<<16 | p[3]>>s&0xFF<<24 |
				p[4]>>s&0xFF<<32 | p[5]>>s&0xFF<<40 | p[6]>>s&0xFF<<48 | p[7]>>s<<56)
		}
		dst := counts[w<<6 : min(w<<6+64, c.n)]
		for i := range dst {
			dst[i] += int64(t[uint(i)>>3&7] >> (8 * (i & 7)) & 0xFF)
		}
		*p = [CounterBits]uint64{}
	}
	c.pending = 0
}
