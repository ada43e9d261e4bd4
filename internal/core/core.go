// Package core implements the paper's primary contribution: the LOLOHA
// (LOngitudinal LOcal HAshing) protocol family for frequency monitoring of
// evolving data under local differential privacy.
//
// A LOLOHA client (Algorithm 1) draws one universal hash function
// H : V → [0..g) for its lifetime, hashes each value, memoizes a GRR(ε∞)
// response per *hash cell* (PRR step) and re-randomizes the memoized
// response with GRR(ε_IRR) each round (IRR step). Because memoization is
// per hash cell rather than per value, the worst-case longitudinal privacy
// loss is g·ε∞ (Theorem 3.5) instead of the k·ε∞ of RAPPOR-style protocols,
// a reduction of k/g.
//
// The server (Algorithm 2) counts, for each candidate value v, the users
// whose report lands in their hash of v and inverts the two sanitization
// rounds with the Eq. (3) estimator using q′₁ = 1/g. That support count is
// the n·k loop of Table 1; the aggregator runs it 64 candidates per word
// operation, turning each report into a k-bit match mask and summing the
// masks in bit-sliced counters (bitset.Counter).
//
// Two named configurations: BiLOLOHA (g = 2, strongest longitudinal
// protection) and OLOLOHA (g from the closed-form optimum of Eq. (6),
// best utility).
package core

import (
	"fmt"
	"math/bits"

	"github.com/loloha-ldp/loloha/internal/bitset"
	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/hashfamily"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/privacy"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// Protocol is a configured LOLOHA instance (both client and server side).
type Protocol struct {
	name         string
	k, g         int
	epsInf, eps1 float64
	epsIRR       float64
	family       hashfamily.Family
	prr          *freqoracle.GRR // GRR(ε∞) over [0..g)
	irr          *freqoracle.GRR // GRR(ε_IRR) over [0..g)
	params       longitudinal.ChainParams
	planes       int // ⌈log₂ g⌉: bit planes of a user's hash table
}

// Protocol contracts (wirecontract): a Stream serves only TallyProtocols.
var (
	_ longitudinal.SpecProtocol  = (*Protocol)(nil)
	_ longitudinal.TallyProtocol = (*Protocol)(nil)
)

// Option customizes a Protocol.
type Option func(*config)

type config struct {
	family   hashfamily.Family
	exactIRR bool
	name     string
}

// WithFamily selects the universal hash family (default: SplitMix).
func WithFamily(f hashfamily.Family) Option {
	return func(c *config) { c.family = f }
}

// WithExactIRRCalibration switches the IRR budget from the paper's
// Algorithm 1 formula (exact for g = 2, conservative for g > 2) to the
// exact g-ary calibration of longitudinal.ExactEpsIRR. The result is
// slightly less IRR noise — and hence lower variance — at the same ε1
// guarantee. Kept as an option so default behaviour reproduces the paper.
func WithExactIRRCalibration() Option {
	return func(c *config) { c.exactIRR = true }
}

func withName(name string) Option {
	return func(c *config) { c.name = name }
}

// New returns a LOLOHA protocol over domain size k with reduced domain g,
// longitudinal budget epsInf and first-report budget eps1 (0 < eps1 < epsInf).
func New(k, g int, epsInf, eps1 float64, opts ...Option) (*Protocol, error) {
	if k < 2 {
		return nil, fmt.Errorf("core: LOLOHA needs k >= 2, got %d", k)
	}
	if g < 2 {
		return nil, fmt.Errorf("core: LOLOHA needs g >= 2, got %d", g)
	}
	cfg := config{name: "LOLOHA"}
	for _, o := range opts {
		o(&cfg)
	}
	var epsIRR float64
	var err error
	if cfg.exactIRR {
		epsIRR, err = longitudinal.ExactEpsIRR(epsInf, eps1, g)
	} else {
		epsIRR, err = longitudinal.EpsIRR(epsInf, eps1)
	}
	if err != nil {
		return nil, err
	}
	if cfg.family == nil {
		cfg.family = hashfamily.NewSplitMixFamily(g)
	}
	if fg := cfg.family.FromSeed(0).G(); fg != g {
		return nil, fmt.Errorf("core: hash family maps to [0..%d), protocol needs g=%d", fg, g)
	}
	prr, err := freqoracle.NewGRR(g, epsInf)
	if err != nil {
		return nil, err
	}
	irr, err := freqoracle.NewGRR(g, epsIRR)
	if err != nil {
		return nil, err
	}
	return &Protocol{
		name:   cfg.name,
		k:      k,
		g:      g,
		epsInf: epsInf,
		eps1:   eps1,
		epsIRR: epsIRR,
		family: cfg.family,
		prr:    prr,
		irr:    irr,
		params: longitudinal.ChainParams{
			P1: prr.Params().P,
			Q1: 1 / float64(g), // q′₁ of Algorithm 2
			P2: irr.Params().P,
			Q2: irr.Params().Q,
		},
		planes: bits.Len(uint(g - 1)),
	}, nil
}

// NewBinary returns BiLOLOHA: g = 2, the strongest longitudinal protection
// (worst case 2·ε∞ on the users' values).
func NewBinary(k int, epsInf, eps1 float64, opts ...Option) (*Protocol, error) {
	return New(k, 2, epsInf, eps1, append(opts, withName("BiLOLOHA"))...)
}

// NewOptimal returns OLOLOHA: g chosen by the closed form of Eq. (6) to
// minimize the approximate variance V*.
func NewOptimal(k int, epsInf, eps1 float64, opts ...Option) (*Protocol, error) {
	return New(k, OptimalG(epsInf, eps1), epsInf, eps1, append(opts, withName("OLOLOHA"))...)
}

// Name returns the configured protocol name (LOLOHA, BiLOLOHA or OLOLOHA).
func (p *Protocol) Name() string { return p.name }

// K returns the original domain size.
func (p *Protocol) K() int { return p.k }

// G returns the reduced domain size.
func (p *Protocol) G() int { return p.g }

// EpsInf returns the longitudinal budget ε∞.
func (p *Protocol) EpsInf() float64 { return p.epsInf }

// Eps1 returns the first-report budget ε1.
func (p *Protocol) Eps1() float64 { return p.eps1 }

// EpsIRR returns the derived instantaneous-round budget of Algorithm 1.
func (p *Protocol) EpsIRR() float64 { return p.epsIRR }

// Family returns the universal hash family the clients draw from.
func (p *Protocol) Family() hashfamily.Family { return p.family }

// Params returns the server-side chain probabilities (with q′₁ = 1/g).
func (p *Protocol) Params() longitudinal.ChainParams { return p.params }

// LongitudinalBudget returns the worst-case privacy loss on the users'
// values, g·ε∞ (Theorem 3.5).
func (p *Protocol) LongitudinalBudget() float64 { return float64(p.g) * p.epsInf }

// ApproxVariance returns V* (Eq. (5)) with the Algorithm 2 parameters.
func (p *Protocol) ApproxVariance(n int) float64 { return p.params.ApproxVariance(n) }

// SteadyReportBits implements longitudinal.Protocol: ⌈log₂ g⌉ bits per
// round (Table 1).
func (p *Protocol) SteadyReportBits() int { return p.planes }

// ---------------------------------------------------------------------------
// Client side (Algorithm 1).

// Client is a single user's LOLOHA state.
type Client struct {
	proto  *Protocol
	hash   hashfamily.Hash
	seed   uint64
	rng    *randsrc.Rand
	ledger *privacy.Ledger
}

// NewClient implements longitudinal.Protocol. The seed determines the hash
// choice, the memoized PRR responses and the IRR noise stream.
func (p *Protocol) NewClient(seed uint64) longitudinal.Client {
	return p.newClient(seed)
}

func (p *Protocol) newClient(seed uint64) *Client {
	rng := randsrc.NewSeeded(randsrc.Derive(seed, 0x10104A))
	return &Client{
		proto:  p,
		hash:   p.family.New(rng),
		seed:   seed,
		rng:    rng,
		ledger: privacy.NewLedger(p.epsInf, p.g),
	}
}

// reportCell runs one round — hash, memoized PRR, fresh IRR — and
// returns the sanitized hash cell.
//
//loloha:noalloc
func (c *Client) reportCell(v int) int {
	if v < 0 || v >= c.proto.k {
		panic(fmt.Sprintf("core: LOLOHA value %d outside [0,%d)", v, c.proto.k))
	}
	x := c.hash.Index(v) // hash step
	c.ledger.Charge(x)   // a new cell consumes ε∞ (Theorem 3.5 ledger)
	memo := c.proto.prr.PerturbWord(x,
		randsrc.Derive(c.seed, uint64(x), 1),
		randsrc.Derive(c.seed, uint64(x), 2)) // PRR step, memoized by PRF
	return c.proto.irr.Perturb(memo, c.rng) // IRR step
}

// AppendReport implements longitudinal.Client: the sanitized cell
// straight into wire bytes, zero allocations when dst has capacity.
//
//loloha:noalloc
func (c *Client) AppendReport(dst []byte, v int) []byte {
	return freqoracle.AppendGRRReport(dst, c.reportCell(v), c.proto.g)
}

// WireRegistration implements longitudinal.Client: the hash seed
// the server resolves the client's hash function from (Algorithm 1,
// "Send H").
func (c *Client) WireRegistration() longitudinal.Registration {
	return longitudinal.Registration{HashSeed: c.hash.Seed()}
}

// Charge implements longitudinal.Client: it advances the privacy ledger as
// AppendReport would, without the PRR/IRR work.
//
//loloha:noalloc
func (c *Client) Charge(v int) {
	if v < 0 || v >= c.proto.k {
		panic(fmt.Sprintf("core: LOLOHA value %d outside [0,%d)", v, c.proto.k))
	}
	c.ledger.Charge(c.hash.Index(v))
}

// PrivacySpent implements longitudinal.Client: ε̌ = ε∞ · (distinct hash
// cells used), capped at g·ε∞.
func (c *Client) PrivacySpent() float64 { return c.ledger.Spent() }

// ---------------------------------------------------------------------------
// Server side (Algorithm 2).

// Aggregator collects one round of LOLOHA reports and estimates the k-bin
// histogram. The first report of a user tabulates the user's hash
// function H_u over [0..k) as ⌈log₂ g⌉ bit planes (n·⌈log₂ g⌉·⌈k/64⌉·8
// bytes for n users). Each report becomes a k-bit mask of the candidates
// v with H_u(v) = x, and the masks are summed in bit-sliced counters that
// spill into the round's counts every 2^bitset.CounterBits − 1 reports
// and before the counts are read (EndRound, Tally).
type Aggregator struct {
	proto   *Protocol
	round   longitudinal.Tally
	pending *bitset.Counter  // support counts not yet in round.Counts
	mask    []uint64         // scratch: the current report's match mask
	tables  map[int][]uint64 // userID -> bit planes of H_u
}

// NewAggregator implements longitudinal.Protocol.
func (p *Protocol) NewAggregator() longitudinal.Aggregator {
	pending := bitset.NewCounter(p.k)
	return &Aggregator{
		proto:   p,
		round:   longitudinal.Tally{Counts: make([]int64, p.k)},
		pending: pending,
		mask:    make([]uint64, pending.Words()),
		tables:  make(map[int][]uint64),
	}
}

// add tallies the sanitized hash cell x ∈ [0..g) of the user whose hash
// function seed names: support C(v) for every candidate value (the n·k
// server loop of Table 1).
//
//loloha:noalloc
func (a *Aggregator) add(userID int, seed uint64, x int) {
	table, ok := a.tables[userID]
	//loloha:alloc-ok cold: the per-user hash table is built once, on first report
	if !ok {
		table = a.proto.hashPlanes(seed)
		a.tables[userID] = table
	}
	matchMask(a.mask, table, a.proto.planes, x)
	if a.pending.Add(a.mask) {
		a.flush()
	}
	a.round.N++
}

// hashPlanes tabulates the hash function named by seed over [0..k) as
// p.planes bit planes, interleaved by word: bit v&63 of word
// (v>>6)·planes + j is bit j of H(v).
func (p *Protocol) hashPlanes(seed uint64) []uint64 {
	h := p.family.FromSeed(seed)
	table := make([]uint64, (p.k+63)/64*p.planes)
	for v := 0; v < p.k; v++ {
		hv := uint64(h.Index(v))
		row := table[(v>>6)*p.planes:][:p.planes]
		for j := range row {
			row[j] |= (hv >> j & 1) << (v & 63)
		}
	}
	return table
}

// matchMask sets bit v of mask exactly when the table's H(v) equals x: per
// word, the AND over planes of plane j or its complement, as bit j of x is
// 1 or 0. Bits past k in the last word are left for the counter to drop.
//
//loloha:noalloc
func matchMask(mask, table []uint64, planes, x int) {
	for w := range mask {
		m := ^uint64(0)
		for j, p := range table[w*planes:][:planes] {
			m &= p ^ (uint64(x>>j&1) - 1)
		}
		mask[w] = m
	}
}

// flush moves the counter's pending support counts into the round.
//
//loloha:noalloc
func (a *Aggregator) flush() { a.pending.FlushInto(a.round.Counts) }

// Tally implements longitudinal.Aggregator. It flushes the pending
// bit-sliced counts first, so the returned tally is the round's exact
// state. The per-user hash tables are not round state: they are pure
// functions of the enrolled hash seeds and stay with the aggregator.
//
//loloha:noalloc
func (a *Aggregator) Tally() *longitudinal.Tally {
	a.flush()
	return &a.round
}

// EndRound implements longitudinal.Aggregator: Eq. (3) with q′₁ = 1/g.
func (a *Aggregator) EndRound() []float64 {
	a.flush()
	est := a.proto.params.EstimateAllL(a.round.Counts, a.round.N)
	a.round.Reset()
	return est
}

// EstimateDomain implements longitudinal.Aggregator.
func (a *Aggregator) EstimateDomain() int { return a.proto.k }
