package longitudinal

import (
	"fmt"
	"math"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/privacy"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// UE chain calibrations. Naming follows the paper's reference [5]: the
// first letter(s) name the IRR is appended, e.g. L-OSUE chains OUE in the
// PRR step with SUE in the IRR step.

// LSUEParams calibrates RAPPOR (L-SUE): SUE in both steps (§2.4.1).
// p1 = e^{ε∞/2}/(e^{ε∞/2}+1); p2 solves the symmetric-IRR chain so the
// first report is exactly ε1-LDP: p2 = (ab−1)/((b+1)(a−1)) with
// a = e^{ε∞/2}, b = e^{ε1/2}.
func LSUEParams(epsInf, eps1 float64) (ChainParams, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return ChainParams{}, err
	}
	a := math.Exp(epsInf / 2)
	b := math.Exp(eps1 / 2)
	p1 := a / (a + 1)
	p2 := (a*b - 1) / ((b + 1) * (a - 1))
	return ChainParams{P1: p1, Q1: 1 - p1, P2: p2, Q2: 1 - p2}, nil
}

// LOSUEParams calibrates L-OSUE (§2.4.2): OUE in the PRR step
// (p1 = 1/2, q1 = 1/(e^{ε∞}+1)) and SUE in the IRR step with
// p2 = (AB−1)/(A−B+AB−1), A = e^{ε∞}, B = e^{ε1}.
func LOSUEParams(epsInf, eps1 float64) (ChainParams, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return ChainParams{}, err
	}
	ea := math.Exp(epsInf)
	eb := math.Exp(eps1)
	p2 := (ea*eb - 1) / (ea - eb + ea*eb - 1)
	return ChainParams{P1: 0.5, Q1: 1 / (ea + 1), P2: p2, Q2: 1 - p2}, nil
}

// LOUEParams calibrates L-OUE: OUE in both steps. The IRR keeps p2 = 1/2
// and q2 is solved numerically so the first report is ε1-LDP. Not every
// (ε∞, ε1) pair is feasible with a fixed p2 = 1/2; infeasible pairs return
// an error.
func LOUEParams(epsInf, eps1 float64) (ChainParams, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return ChainParams{}, err
	}
	ea := math.Exp(epsInf)
	return solveOUEStyleIRR(ChainParams{P1: 0.5, Q1: 1 / (ea + 1)}, eps1)
}

// LSOUEParams calibrates L-SOUE: SUE in the PRR step, OUE in the IRR step
// (p2 = 1/2, q2 solved numerically). Infeasible pairs return an error.
func LSOUEParams(epsInf, eps1 float64) (ChainParams, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return ChainParams{}, err
	}
	a := math.Exp(epsInf / 2)
	p1 := a / (a + 1)
	return solveOUEStyleIRR(ChainParams{P1: p1, Q1: 1 - p1}, eps1)
}

// solveOUEStyleIRR fixes p2 = 1/2 and bisects q2 ∈ (0, 1/2) so that the
// chained first report satisfies exactly eps1. The chain's ε is strictly
// decreasing in q2 (more IRR noise, less leakage), so bisection converges;
// if even q2 → 0 cannot reach eps1 the pair is infeasible.
func solveOUEStyleIRR(prr ChainParams, eps1 float64) (ChainParams, error) {
	prr.P2 = 0.5
	epsAt := func(q2 float64) float64 {
		c := prr
		c.Q2 = q2
		return UEEpsOfChain(c)
	}
	const floor = 1e-12
	if epsAt(floor) < eps1 {
		return ChainParams{}, fmt.Errorf(
			"longitudinal: eps1=%v infeasible for OUE-style IRR (max %v); use a smaller eps1 or an SUE-style IRR",
			eps1, epsAt(floor))
	}
	lo, hi := floor, 0.5-floor // eps is ~0 at q2 = p2 = 1/2
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if epsAt(mid) > eps1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	prr.Q2 = (lo + hi) / 2
	return prr, nil
}

// ---------------------------------------------------------------------------
// The chained-UE protocol (client + aggregator).

// ChainUE is a longitudinal protocol chaining two unary-encoding rounds.
// RAPPOR, L-OSUE, L-OUE and L-SOUE are instances differing only in their
// ChainParams.
type ChainUE struct {
	name         string
	k            int
	params       ChainParams
	epsInf, eps1 float64
	// sampler draws the IRR layer: every bit flips with q2, memoized
	// PRR-one bits with p2 — skip-sampled when q2 is sparse (see
	// freqoracle.ReportSampler for the canonical randomness contract).
	sampler freqoracle.ReportSampler
}

// Protocol contracts (wirecontract): a Stream serves only TallyProtocols.
var (
	_ SpecProtocol  = (*ChainUE)(nil)
	_ TallyProtocol = (*ChainUE)(nil)
)

// NewChainUE builds a chained-UE protocol from explicit parameters;
// normally constructed through NewRAPPOR, NewLOSUE, NewLOUE or NewLSOUE.
func NewChainUE(name string, k int, params ChainParams, epsInf, eps1 float64) (*ChainUE, error) {
	if k < 2 {
		return nil, fmt.Errorf("longitudinal: %s needs k >= 2, got %d", name, k)
	}
	if !(params.P1 > params.Q1) || !(params.P2 > params.Q2) {
		return nil, fmt.Errorf("longitudinal: %s mis-calibrated: %+v", name, params)
	}
	sampler, err := freqoracle.NewReportSampler(k, params.P2, params.Q2)
	if err != nil {
		return nil, fmt.Errorf("longitudinal: %s mis-calibrated: %w", name, err)
	}
	return &ChainUE{name: name, k: k, params: params, epsInf: epsInf, eps1: eps1, sampler: sampler}, nil
}

// NewRAPPOR returns the utility-oriented RAPPOR protocol (L-SUE).
func NewRAPPOR(k int, epsInf, eps1 float64) (*ChainUE, error) {
	p, err := LSUEParams(epsInf, eps1)
	if err != nil {
		return nil, err
	}
	return NewChainUE("RAPPOR", k, p, epsInf, eps1)
}

// NewLOSUE returns the optimized L-OSUE protocol.
func NewLOSUE(k int, epsInf, eps1 float64) (*ChainUE, error) {
	p, err := LOSUEParams(epsInf, eps1)
	if err != nil {
		return nil, err
	}
	return NewChainUE("L-OSUE", k, p, epsInf, eps1)
}

// NewLOUE returns the L-OUE protocol (OUE chained with OUE).
func NewLOUE(k int, epsInf, eps1 float64) (*ChainUE, error) {
	p, err := LOUEParams(epsInf, eps1)
	if err != nil {
		return nil, err
	}
	return NewChainUE("L-OUE", k, p, epsInf, eps1)
}

// NewLSOUE returns the L-SOUE protocol (SUE chained with OUE).
func NewLSOUE(k int, epsInf, eps1 float64) (*ChainUE, error) {
	p, err := LSOUEParams(epsInf, eps1)
	if err != nil {
		return nil, err
	}
	return NewChainUE("L-SOUE", k, p, epsInf, eps1)
}

// Name implements Protocol.
func (c *ChainUE) Name() string { return c.name }

// K implements Protocol.
func (c *ChainUE) K() int { return c.k }

// Params returns the calibrated chain probabilities.
func (c *ChainUE) Params() ChainParams { return c.params }

// EpsInf returns the longitudinal budget ε∞.
func (c *ChainUE) EpsInf() float64 { return c.epsInf }

// Eps1 returns the first-report budget ε1.
func (c *ChainUE) Eps1() float64 { return c.eps1 }

// ApproxVariance returns Eq. (5) for this chain with n users.
func (c *ChainUE) ApproxVariance(n int) float64 { return c.params.ApproxVariance(n) }

// SteadyReportBits implements Protocol: a UE report is k bits per round.
func (c *ChainUE) SteadyReportBits() int { return c.k }

// Spec implements SpecProtocol. Chains built through NewChainUE with a
// custom name yield a spec whose family may not be registered; the four
// standard calibrations round-trip.
func (c *ChainUE) Spec() ProtocolSpec {
	return ProtocolSpec{Family: c.name, K: c.k, EpsInf: c.epsInf, Eps1: c.eps1}
}

// NewClient implements Protocol.
func (c *ChainUE) NewClient(seed uint64) Client {
	return &chainUEClient{
		proto:  c,
		seed:   seed,
		rng:    randsrc.NewSeeded(randsrc.Derive(seed, 0xC11E57)),
		bases:  make(map[int]uint64),
		ones:   make(map[int][]int32),
		p1T:    randsrc.BernoulliThreshold(c.params.P1),
		q1T:    randsrc.BernoulliThreshold(c.params.Q1),
		ledger: privacy.NewLedger(c.epsInf, c.k),
	}
}

// onesCacheCap bounds the per-client cache of memoized PRR one-lists.
// Evicting is always safe: a one-list is a pure PRF of (seed, value) and
// recomputes bit-identically, so the cap trades recompute time for memory
// on clients that roam across many distinct values.
const onesCacheCap = 256

type chainUEClient struct {
	proto *ChainUE
	seed  uint64
	rng   *randsrc.Rand
	// bases caches the PRF stream anchor of each memoized value, so the
	// per-bit cost of the PRR step is a single mix round.
	bases map[int]uint64
	// ones caches, per memoized value, the sorted positions whose PRR bit
	// is one — the sparse form of the memoized encoding, the only thing
	// the IRR sampler needs.
	ones     map[int][]int32
	p1T, q1T uint64
	ledger   *privacy.Ledger
}

// baseOf returns the PRF stream anchor for the memoized encoding of w.
//
//loloha:noalloc
func (cl *chainUEClient) baseOf(w int) uint64 {
	if b, ok := cl.bases[w]; ok {
		return b
	}
	b := randsrc.Derive(cl.seed, uint64(w))
	cl.bases[w] = b
	return b
}

// prrBit returns the memoized PRR bit i of the unary encoding of value w:
// a PRF draw, identical every time the same (w, i) pair recurs.
//
//loloha:noalloc
func (cl *chainUEClient) prrBit(w, i int) bool {
	t := cl.q1T
	if i == w {
		t = cl.p1T
	}
	return randsrc.BernoulliWord(randsrc.StreamWord(cl.baseOf(w), i), t)
}

// onesOf returns the memoized PRR one-positions of value w, cached after
// the first materialization (one O(k) PRF scan per distinct value, against
// one per *round* on the old dense path).
//
//loloha:noalloc
func (cl *chainUEClient) onesOf(w int) []int32 {
	if o, ok := cl.ones[w]; ok {
		return o
	}
	k := cl.proto.k
	//loloha:alloc-ok cold: one one-list materialization per distinct value, capped by onesCacheCap
	o := make([]int32, 0, 8+k/8)
	for i := 0; i < k; i++ {
		if cl.prrBit(w, i) {
			o = append(o, int32(i))
		}
	}
	if len(cl.ones) >= onesCacheCap {
		clear(cl.ones)
	}
	cl.ones[w] = o
	return o
}

// AppendReport implements Client: one-hot encode, PRR (memoized), then
// IRR, as one sampler round anchored at the next word of the client's
// stream, with the memoized one-list as the upgraded positions. Steady
// state (warm caches, capacity in dst) performs zero allocations.
//
//loloha:noalloc
func (cl *chainUEClient) AppendReport(dst []byte, v int) []byte {
	cl.Charge(v)
	return cl.proto.sampler.AppendReport(dst, cl.rng.Uint64(), cl.onesOf(v))
}

// WireRegistration implements Client: chained UE needs no
// enrollment metadata.
func (cl *chainUEClient) WireRegistration() Registration { return Registration{} }

// Charge implements Client.
//
//loloha:noalloc
func (cl *chainUEClient) Charge(v int) {
	if v < 0 || v >= cl.proto.k {
		panic(fmt.Sprintf("longitudinal: %s value %d outside [0,%d)", cl.proto.name, v, cl.proto.k))
	}
	cl.ledger.Charge(v)
}

// PrivacySpent implements Client.
func (cl *chainUEClient) PrivacySpent() float64 { return cl.ledger.Spent() }

// chainUEAggregator tallies one round of UE reports.
type chainUEAggregator struct {
	proto *ChainUE
	round Tally
}

// NewAggregator implements Protocol.
func (c *ChainUE) NewAggregator() Aggregator {
	return &chainUEAggregator{proto: c, round: Tally{Counts: make([]int64, c.k)}}
}

// Tally implements Aggregator.
func (a *chainUEAggregator) Tally() *Tally { return &a.round }

// EndRound implements Aggregator.
func (a *chainUEAggregator) EndRound() []float64 {
	est := a.proto.params.EstimateAllL(a.round.Counts, a.round.N)
	a.round.Reset()
	return est
}

// EstimateDomain implements Aggregator.
func (a *chainUEAggregator) EstimateDomain() int { return a.proto.k }
