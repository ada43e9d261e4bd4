package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/loloha-ldp/loloha/internal/bitset"
	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/hashfamily"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// Tests of the word-parallel support tally against an independent
// reference: the naive Algorithm 2 count, C(v) = #{u : H_u(v) = x_u},
// evaluated one user and one candidate at a time.

// flushEvery is the number of reports the bit-sliced counters hold
// before they spill into the dense counts.
const flushEvery = 1<<bitset.CounterBits - 1

// supportCase is one round's worth of reports: user u registered hash
// seed seeds[u] and reported cell xs[u].
type supportCase struct {
	seeds []uint64
	xs    []int
}

func newSupportCase(g, n int, seed uint64) supportCase {
	r := randsrc.NewSeeded(seed)
	c := supportCase{seeds: make([]uint64, n), xs: make([]int, n)}
	for u := range c.seeds {
		c.seeds[u] = r.Uint64()
		c.xs[u] = r.Intn(g)
	}
	return c
}

// naiveSupport returns the reference counts over users [lo, hi).
func naiveSupport(family hashfamily.Family, k int, c supportCase, lo, hi int) []int64 {
	counts := make([]int64, k)
	for u := lo; u < hi; u++ {
		h := family.FromSeed(c.seeds[u])
		for v := range counts {
			if h.Index(v) == c.xs[u] {
				counts[v]++
			}
		}
	}
	return counts
}

// tallyUsers feeds users [lo, hi) to agg through the wire tallier, the
// path every collection route runs.
func tallyUsers(t testing.TB, p *Protocol, agg *Aggregator, c supportCase, lo, hi int) {
	t.Helper()
	wt := p.WireTallier()
	var payload []byte
	for u := lo; u < hi; u++ {
		payload = freqoracle.AppendGRRReport(payload[:0], c.xs[u], p.G())
		reg := longitudinal.Registration{HashSeed: c.seeds[u]}
		if err := wt.TallyWire(agg, u, payload, reg); err != nil {
			t.Fatal(err)
		}
	}
}

// newServer returns p's aggregator with its concrete type.
func newServer(p *Protocol) *Aggregator { return p.NewAggregator().(*Aggregator) }

func checkTally(t testing.TB, what string, agg *Aggregator, want []int64, wantN int) {
	t.Helper()
	tl := agg.Tally()
	got, n := tl.Counts, tl.N
	if n != wantN {
		t.Fatalf("%s: n = %d, want %d", what, n, wantN)
	}
	wrong := 0
	for v := range want {
		if got[v] != want[v] {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%s: %d of %d counts differ from the naive count", what, wrong, len(want))
	}
}

type familyCase struct {
	name string
	mk   func(g int) hashfamily.Family
}

var supportFamilies = []familyCase{
	{"splitmix", func(g int) hashfamily.Family { return hashfamily.NewSplitMixFamily(g) }},
	{"carter-wegman", func(g int) hashfamily.Family { return hashfamily.NewCarterWegmanFamily(g) }},
}

func supportProtocol(t testing.TB, k, g int, fam familyCase) *Protocol {
	t.Helper()
	p, err := New(k, g, 2, 1, WithFamily(fam.mk(g)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSupportCountsMatchNaive runs the grid of domain sizes (one word,
// word edges, the benchmark's k), reduced domains (powers of two and not,
// wider than a byte) and both hash families, with report counts on each
// side of the counters' flush boundary.
func TestSupportCountsMatchNaive(t *testing.T) {
	ns := []int{1, flushEvery - 1, flushEvery, flushEvery + 1, 1000}
	for _, k := range []int{2, 63, 64, 65, 360, 1000} {
		for _, g := range []int{2, 3, 4, 5, 8, 257} {
			for _, fam := range supportFamilies {
				c := newSupportCase(g, ns[len(ns)-1], uint64(k*1000+g))
				family := fam.mk(g)
				want := map[int][]int64{}
				for _, n := range ns {
					want[n] = naiveSupport(family, k, c, 0, n)
				}
				p := supportProtocol(t, k, g, fam)
				for _, n := range ns {
					agg := newServer(p)
					tallyUsers(t, p, agg, c, 0, n)
					what := fmt.Sprintf("k=%d g=%d %s n=%d", k, g, fam.name, n)
					checkTally(t, what, agg, want[n], n)
				}
			}
		}
	}
}

// TestSupportCacheWideG is the regression for reduced domains wider than
// a byte: a per-user hash table that kept H_u(v) in 8 bits matched cells
// modulo 256, so at g = 257 and g = 300 its counts disagreed with the
// naive count.
func TestSupportCacheWideG(t *testing.T) {
	const k, n = 2000, 300
	for _, g := range []int{256, 257, 300, 1024} {
		p, err := New(k, g, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := newSupportCase(g, n, uint64(g))
		// Each user's cell is one its hash actually produces, so every
		// report has support and a wrapped cell would show.
		for u := range c.xs {
			c.xs[u] = p.family.FromSeed(c.seeds[u]).Index(u % k)
		}
		agg := newServer(p)
		tallyUsers(t, p, agg, c, 0, n)
		checkTally(t, fmt.Sprintf("g=%d", g), agg, naiveSupport(p.family, k, c, 0, n), n)
	}
}

// TestSupportCountsExactAcrossMidRoundReads interleaves Tally reads,
// folds (Add then Reset, as a stream closing a sharded round) and copies
// added into a third aggregator (a restore) with tallying, mid-round and
// off the flush boundary, and checks counts, n and the final estimates
// against the naive count.
func TestSupportCountsExactAcrossMidRoundReads(t *testing.T) {
	const k, n = 130, 1000
	for _, g := range []int{2, 257} {
		for _, fam := range supportFamilies {
			t.Run(fmt.Sprintf("g=%d/%s", g, fam.name), func(t *testing.T) {
				p := supportProtocol(t, k, g, fam)
				c := newSupportCase(g, n, uint64(g))
				naive := func(lo, hi int) []int64 { return naiveSupport(p.family, k, c, lo, hi) }

				a := newServer(p)
				tallyUsers(t, p, a, c, 0, 100)
				checkTally(t, "a after 100", a, naive(0, 100), 100)
				tallyUsers(t, p, a, c, 100, 300)
				checkTally(t, "a after 300", a, naive(0, 300), 300)

				// A second shard tallies [300, 500); a mid-round fold
				// moves its pending counts into a and empties it.
				b := newServer(p)
				tallyUsers(t, p, b, c, 300, 400)
				fold(t, a, b)
				checkTally(t, "a after fold", a, naive(0, 400), 400)
				checkTally(t, "b after fold", b, make([]int64, k), 0)
				tallyUsers(t, p, b, c, 400, 500)
				tallyUsers(t, p, a, c, 500, 600)

				// A third aggregator adds a copy of a's tally mid-round,
				// then folds b and finishes the round.
				d := newServer(p)
				tallyUsers(t, p, d, c, 600, 650)
				at := a.Tally()
				saved := longitudinal.Tally{Counts: slices.Clone(at.Counts), N: at.N}
				a.EndRound()
				if err := d.Tally().Add(saved); err != nil {
					t.Fatal(err)
				}
				tallyUsers(t, p, d, c, 650, 700)
				fold(t, d, b)
				tallyUsers(t, p, d, c, 700, n)
				want := naive(0, n)
				checkTally(t, "d at round end", d, want, n)

				// The estimates are Eq. (3) of exactly those counts.
				wantEst := p.params.EstimateAllL(want, n)
				for v, e := range d.EndRound() {
					if e != wantEst[v] {
						t.Fatalf("estimate %d = %v, want %v", v, e, wantEst[v])
					}
				}
				checkTally(t, "d after EndRound", d, make([]int64, k), 0)
			})
		}
	}
}

// fold moves src's round into dst, as a stream does with its shards when
// a round closes.
func fold(t *testing.T, dst, src *Aggregator) {
	t.Helper()
	st := src.Tally()
	if err := dst.Tally().Add(*st); err != nil {
		t.Fatal(err)
	}
	st.Reset()
}

// TestTallyWireZeroAllocLOLOHA pins the steady-state support tally at 0
// allocations per report over more than one flush period, so the
// counters' spill into counts runs inside the measured loop.
func TestTallyWireZeroAllocLOLOHA(t *testing.T) {
	const k, users = 360, flushEvery + 45
	for _, g := range []int{2, 257} {
		p := supportProtocol(t, k, g, supportFamilies[0])
		c := newSupportCase(g, users, 7)
		payloads := make([][]byte, users)
		regs := make([]longitudinal.Registration, users)
		for u := range payloads {
			payloads[u] = freqoracle.AppendGRRReport(nil, c.xs[u], g)
			regs[u] = longitudinal.Registration{HashSeed: c.seeds[u]}
		}
		agg := newServer(p)
		wt := p.WireTallier()
		tallyUsers(t, p, agg, c, 0, users) // builds the per-user tables
		allocs := testing.AllocsPerRun(3, func() {
			for u := range payloads {
				if err := wt.TallyWire(agg, u, payloads[u], regs[u]); err != nil {
					panic(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("g=%d: TallyWire allocates %v times per %d reports, want 0", g, allocs, users)
		}
		allocs = testing.AllocsPerRun(10, func() {
			for u := range 45 { // leaves counts pending for Tally to flush
				if err := wt.TallyWire(agg, u, payloads[u], regs[u]); err != nil {
					panic(err)
				}
			}
			_ = agg.Tally()
		})
		if allocs != 0 {
			t.Errorf("g=%d: a mid-round Tally read allocates %v times, want 0", g, allocs)
		}
	}
}

// BenchmarkTallyWireLOLOHA measures the steady-state support tally per
// report at the pipeline benchmark's k, for BiLOLOHA, OLOLOHA's g at
// (ε∞, ε1) = (2, 1) and a reduced domain wider than a byte. The users'
// hash tables are built before the timer starts.
func BenchmarkTallyWireLOLOHA(b *testing.B) {
	const k, users = 360, 10000
	for _, g := range []int{2, OptimalG(2, 1), 257} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			p, err := New(k, g, 2, 1)
			if err != nil {
				b.Fatal(err)
			}
			c := newSupportCase(g, users, 9)
			payloads := make([][]byte, users)
			regs := make([]longitudinal.Registration, users)
			for u := range payloads {
				payloads[u] = freqoracle.AppendGRRReport(nil, c.xs[u], g)
				regs[u] = longitudinal.Registration{HashSeed: c.seeds[u]}
			}
			agg := newServer(p)
			wt := p.WireTallier()
			tallyUsers(b, p, agg, c, 0, users)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := i % users
				if err := wt.TallyWire(agg, u, payloads[u], regs[u]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
