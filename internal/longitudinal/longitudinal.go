// Package longitudinal implements the memoization-based longitudinal LDP
// protocols of §2.4 of the paper — RAPPOR (L-SUE), L-OSUE, L-GRR and
// dBitFlipPM — plus the L-OUE and L-SOUE chains analyzed in the paper's
// reference [5]. All follow the same two-step structure:
//
//	PRR (permanent randomized response): the encoded value is sanitized
//	once at level ε∞ and the result memoized — identical inputs reuse the
//	identical sanitized output forever, which defeats averaging attacks.
//
//	IRR (instantaneous randomized response): each round, the memoized
//	value is sanitized again so the first report satisfies ε1 < ε∞ and
//	changes of the underlying value are harder to detect. dBitFlipPM is
//	the exception: it has no IRR round.
//
// Memoization is implemented as a PRF of (client seed, encoded value): the
// paper notes (§3.1) that pre-computing the mapping and memoizing are
// "equivalent in terms of the functionality provided"; the PRF form is the
// O(1)-memory way to pre-compute lazily.
//
// Every protocol has one client/aggregator contract: a Client writes each
// round straight into its steady-state wire payload (AppendReport), and
// an Aggregator receives payloads only through the protocol's
// WireTallier. Tests check every registered family against
// internal/reference, a server written independently from the paper's
// definitions.
package longitudinal

import (
	"fmt"
	"math"
)

// Client is the user-side state of a longitudinal protocol: it sanitizes
// one value per collection round straight into the round's steady-state
// wire payload and tracks its own longitudinal privacy ledger
// (Definition 3.2). The payload is the only form a report takes: a
// server tallies it through the protocol's WireTallier.
type Client interface {
	AppendReporter
	// Charge advances the privacy ledger exactly as AppendReport(dst, v)
	// would, without producing a payload. Privacy-loss-only experiments
	// (Fig. 4) use it to replay long sequences cheaply; the ledger state
	// after a Charge is indistinguishable from the state after a report.
	Charge(v int)
	// PrivacySpent returns the longitudinal privacy loss ε̌ consumed so far.
	PrivacySpent() float64
}

// AppendReporter is the emission half of a Client: a round's wire payload
// and the one-time enrollment metadata a server needs to tally it.
type AppendReporter interface {
	// AppendReport sanitizes v (an index in [0..k)) for the current round,
	// advances the client's clock and privacy ledger, and appends the
	// steady-state wire payload to dst, returning the extended buffer.
	// With capacity in dst the steady state performs no allocations.
	AppendReport(dst []byte, v int) []byte
	// WireRegistration returns the client's one-time enrollment metadata
	// — what a server needs besides the payload bytes. The returned value
	// may alias client state and must not be mutated.
	WireRegistration() Registration
}

// Aggregator is the server-side state: it holds the tallies of one
// collection round and produces the round's frequency estimates. Reports
// reach it only through the protocol's WireTallier.
type Aggregator interface {
	// EndRound finalizes the round and returns its frequency estimates
	// over the estimation domain.
	EndRound() []float64
	// EstimateDomain returns the length of EndRound's result: k for most
	// protocols, b (the bucket count) for dBitFlipPM.
	EstimateDomain() int
	// Tally returns the open round's state: the support counts and report
	// count EndRound estimates from, with len(Counts) fixed for the
	// aggregator's lifetime. The pointer aliases the aggregator, so adding
	// into it or resetting it moves round state in or out (sharding folds,
	// restores and collector-tree merges all work this way). It may be
	// read or written only while no TallyWire runs on the aggregator;
	// server.Stream calls it under its exclusive round barrier.
	Tally() *Tally
}

// Protocol binds the two sides together with the protocol's metadata.
type Protocol interface {
	Name() string
	// K returns the size of the original domain.
	K() int
	// NewClient returns a fresh per-user client. seed determines all of
	// the user's randomness (hash choice, memoized responses, IRR noise).
	NewClient(seed uint64) Client
	// NewAggregator returns a fresh server-side aggregator.
	NewAggregator() Aggregator
	// SteadyReportBits returns the per-round communication cost in bits
	// (the Table 1 column).
	SteadyReportBits() int
}

// ---------------------------------------------------------------------------
// Chained parameters: Eq. (3), Eq. (4), Eq. (5).

// ChainParams holds the four probabilities of a two-round sanitization:
// (P1, Q1) for the PRR step and (P2, Q2) for the IRR step. For local-hashing
// protocols Q1 carries the server-side q′ = 1/g of Algorithm 2.
type ChainParams struct {
	P1, Q1, P2, Q2 float64
}

// PS returns Pr[report supports v | true value v] = p1p2 + (1−p1)q2.
func (c ChainParams) PS() float64 { return c.P1*c.P2 + (1-c.P1)*c.Q2 }

// QS returns Pr[report supports v | true value ≠ v] = q1p2 + (1−q1)q2.
func (c ChainParams) QS() float64 { return c.Q1*c.P2 + (1-c.Q1)*c.Q2 }

// EstimateL is the unbiased two-round estimator of Eq. (3):
//
//	f̂_L(v) = (C(v) − n(q1(p2−q2) + q2)) / (n(p1−q1)(p2−q2)).
func (c ChainParams) EstimateL(count float64, n int) float64 {
	nf := float64(n)
	return (count - nf*(c.Q1*(c.P2-c.Q2)+c.Q2)) / (nf * (c.P1 - c.Q1) * (c.P2 - c.Q2))
}

// EstimateAllL applies EstimateL to a count vector. A round with zero
// reports estimates zero everywhere (rather than dividing by n = 0).
func (c ChainParams) EstimateAllL(counts []int64, n int) []float64 {
	out := make([]float64, len(counts))
	if n == 0 {
		return out
	}
	for v, cnt := range counts {
		out[v] = c.EstimateL(float64(cnt), n)
	}
	return out
}

// Variance is Eq. (4): the exact variance of the Eq. (3) estimator at true
// frequency f with n users.
func (c ChainParams) Variance(f float64, n int) float64 {
	gamma := f*(2*c.P1*c.P2-2*c.P1*c.Q2+2*c.Q2-1) + c.P2*c.Q1 + c.Q2*(1-c.Q1)
	d1 := c.P1 - c.Q1
	d2 := c.P2 - c.Q2
	return gamma * (1 - gamma) / (float64(n) * d1 * d1 * d2 * d2)
}

// ApproxVariance is Eq. (5): Eq. (4) evaluated at f = 0, the approximation
// the paper uses for all numerical comparisons (Fig. 2).
func (c ChainParams) ApproxVariance(n int) float64 {
	return c.Variance(0, n)
}

// EpsIRR computes the instantaneous-round privacy level of Algorithm 1:
//
//	ε_IRR = ln((e^{ε∞+ε1} − 1) / (e^{ε∞} − e^{ε1})),
//
// the unique level making the chained first report ε1-LDP (Theorem 3.4).
// It requires 0 < ε1 < ε∞.
func EpsIRR(epsInf, eps1 float64) (float64, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return 0, err
	}
	return math.Log((math.Exp(epsInf+eps1) - 1) / (math.Exp(epsInf) - math.Exp(eps1))), nil
}

// ValidateBudgets checks the standing constraint 0 < ε1 < ε∞ of Algorithm 1.
// Both budgets must be finite: ε∞ = +Inf would pass the ordering check and
// then turn EpsIRR into NaN (Inf/Inf), and NaN budgets fail every
// comparison, so the checks are phrased to reject them.
func ValidateBudgets(epsInf, eps1 float64) error {
	if !(eps1 > 0) || !(eps1 < epsInf) || math.IsInf(epsInf, 0) {
		return fmt.Errorf("longitudinal: need 0 < eps1 < epsInf, both finite, got eps1=%v epsInf=%v", eps1, epsInf)
	}
	return nil
}

// ExactEpsIRR computes the instantaneous-round budget that makes the
// chained first report of a g-ary GRR chain *exactly* ε1-LDP, accounting
// for all g−1 wrong memoized cells:
//
//	(p1p2 + (g−1)q1q2) / (q1p2 + p1q2 + (g−2)q1q2) = e^{ε1},
//
// which solves to p2 = (AB + (g−2)B − (g−1)) / ((A−1)(B+g−1)) with
// A = e^{ε∞}, B = e^{ε1}. The paper's EpsIRR uses the g = 2 form for every
// g and is therefore slightly conservative (extra IRR noise) when g > 2;
// this exact form is the utility-side ablation discussed in DESIGN.md.
// For g = 2 the two coincide.
func ExactEpsIRR(epsInf, eps1 float64, g int) (float64, error) {
	if err := ValidateBudgets(epsInf, eps1); err != nil {
		return 0, err
	}
	if g < 2 {
		return 0, fmt.Errorf("longitudinal: ExactEpsIRR needs g >= 2, got %d", g)
	}
	gf := float64(g)
	a, b := math.Exp(epsInf), math.Exp(eps1)
	p2 := (a*b + (gf-2)*b - (gf - 1)) / ((a - 1) * (b + gf - 1))
	if p2 <= 1/gf || p2 >= 1 {
		return 0, fmt.Errorf("longitudinal: exact calibration infeasible for eps1=%v epsInf=%v g=%d (p2=%v)",
			eps1, epsInf, g, p2)
	}
	// GRR with keep probability p2 over g cells has ε = ln(p2(g−1)/(1−p2)).
	return math.Log(p2 * (gf - 1) / (1 - p2)), nil
}

// UEEpsOfChain returns the first-report LDP level of a chained unary
// encoding: ln(ps(1−qs)/((1−ps)qs)).
func UEEpsOfChain(c ChainParams) float64 {
	ps, qs := c.PS(), c.QS()
	return math.Log(ps * (1 - qs) / ((1 - ps) * qs))
}

// GRREpsOfChain returns the first-report LDP level of a chained GRR as the
// paper computes it: ln(ps/qs).
func GRREpsOfChain(c ChainParams) float64 {
	return math.Log(c.PS() / c.QS())
}
