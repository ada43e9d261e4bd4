// Package privacy implements the longitudinal privacy accounting of the
// paper: Definition 3.2 ("ε-LDP on the users' values") measures the total
// budget consumed once every distinct memoized unit of a user's sequence has
// been sanitized. Each protocol charges ε∞ per *new* memoized unit — a
// distinct raw value for RAPPOR/L-OSUE/L-GRR, a distinct hash cell for
// LOLOHA, a distinct sampled-bucket state for dBitFlipPM — so the ledger is
// a set of units with a worst-case cap (k, g, or min(d+1, b)).
package privacy

import (
	"fmt"
	"math"
)

// Ledger tracks the longitudinal privacy loss ε̌ of a single user under
// Definition 3.2. Charge it with the memoized unit consumed at each report;
// it bills epsPerUnit for units not seen before, up to maxUnits (the
// protocol's worst case), after which the loss is capped: by sequential
// composition (Prop. 2.3) a mechanism that can only memoize maxUnits
// distinct outputs cannot leak more than maxUnits·ε∞.
//
// The units seen so far are a bitset of ⌈maxUnits/64⌉ words, so a
// LOLOHA client (units are hash cells in [0, g)) holds one word at
// g ≤ 64. A unit past maxUnits still counts: the bitset grows to hold it.
type Ledger struct {
	epsPerUnit float64
	maxUnits   int
	units      int      // distinct units charged
	seen       []uint64 // bit u is set once unit u has been charged
}

// NewLedger returns a fresh ledger charging epsPerUnit per distinct unit
// with worst case maxUnits units. It panics on non-positive arguments
// (caller bug, not data).
func NewLedger(epsPerUnit float64, maxUnits int) *Ledger {
	if epsPerUnit <= 0 {
		panic(fmt.Sprintf("privacy: epsPerUnit must be positive, got %v", epsPerUnit))
	}
	if maxUnits <= 0 {
		panic(fmt.Sprintf("privacy: maxUnits must be positive, got %d", maxUnits))
	}
	return &Ledger{
		epsPerUnit: epsPerUnit,
		maxUnits:   maxUnits,
		seen:       make([]uint64, (maxUnits+63)/64),
	}
}

// Charge records that the report consumed the memoized unit, which must
// be non-negative. New units bill epsPerUnit; repeated units are free
// (memoization reuses the response).
//
//loloha:noalloc
func (l *Ledger) Charge(unit int) {
	if unit < 0 {
		panic(fmt.Sprintf("privacy: negative unit %d", unit))
	}
	w := unit >> 6
	//loloha:alloc-ok cold: only a unit past maxUnits grows the bitset
	if w >= len(l.seen) {
		l.grow(w + 1)
	}
	bit := uint(unit) & 63
	l.units += int(^l.seen[w] >> bit & 1)
	l.seen[w] |= 1 << bit
}

// grow extends the bitset to at least words words, doubling so that a
// run of ever larger units costs amortized constant time.
func (l *Ledger) grow(words int) {
	seen := make([]uint64, max(words, 2*len(l.seen)))
	copy(seen, l.seen)
	l.seen = seen
}

// Units returns the number of distinct units charged so far.
//
//loloha:noalloc
func (l *Ledger) Units() int { return l.units }

// Spent returns the longitudinal privacy loss ε̌ accumulated so far:
// min(distinct units, maxUnits) · epsPerUnit.
//
//loloha:noalloc
func (l *Ledger) Spent() float64 {
	return float64(min(l.units, l.maxUnits)) * l.epsPerUnit
}

// Cap returns the worst-case loss maxUnits · epsPerUnit (the Table 1
// "privacy budget consumption" column).
func (l *Ledger) Cap() float64 { return float64(l.maxUnits) * l.epsPerUnit }

// SequentialComposition returns the privacy level of releasing the outputs
// of all the given mechanisms on the same input (Prop. 2.3).
func SequentialComposition(eps ...float64) float64 {
	total := 0.0
	for _, e := range eps {
		total += e
	}
	return total
}

// ---------------------------------------------------------------------------
// Theorem 3.1: LDP cannot be satisfied when τ → ∞.

// MinimalUtilityLeak models Theorem 3.1: if every per-step mechanism is NOT
// α-LDP (i.e. retains at least α of distinguishing power, the "minimal
// utility" assumption) then after τ steps the sequence mechanism cannot be
// ε-LDP for any ε < τ·α. It returns that lower bound τ·α.
func MinimalUtilityLeak(alpha float64, tau int) float64 {
	return alpha * float64(tau)
}

// BreaksLDP reports whether a longitudinal mechanism with per-step leakage
// at least alpha over tau steps violates a claimed ε-LDP guarantee
// (the condition τ ≥ ε/α of Theorem 3.1).
func BreaksLDP(alpha, eps float64, tau int) bool {
	return float64(tau) >= eps/alpha
}

// RatioTracker accumulates the worst-case posterior likelihood ratio of the
// inductive argument in the proof of Theorem 3.1: each step multiplies the
// ratio by at least e^α, so after t steps the log-ratio is ≥ t·α. It gives
// experiments a concrete object that demonstrates the impossibility result.
type RatioTracker struct {
	logRatio float64
}

// Observe folds one step's per-report likelihood ratio (≥ 1) into the
// tracker. It panics on ratios below 1; the proof normalizes each step so
// that the maximizing/minimizing inputs are chosen per step.
func (rt *RatioTracker) Observe(ratio float64) {
	if ratio < 1 {
		panic(fmt.Sprintf("privacy: step ratio %v < 1; pass max/min normalized ratios", ratio))
	}
	rt.logRatio += math.Log(ratio)
}

// LogRatio returns the accumulated worst-case log likelihood ratio, i.e.
// the effective ε distinguishing the two extreme input sequences.
func (rt *RatioTracker) LogRatio() float64 { return rt.logRatio }

// ---------------------------------------------------------------------------
// Single-report guarantees (Theorems 3.3 and 3.4).

// GRRMaxRatio returns the worst-case output likelihood ratio of a GRR
// randomizer with keep probability p over domain size g: p/q with
// q = (1−p)/(g−1). Theorem 3.3 instantiates it at p = e^ε∞/(e^ε∞+g−1),
// giving exactly e^ε∞.
func GRRMaxRatio(p float64, g int) float64 {
	q := (1 - p) / float64(g-1)
	return p / q
}

// ChainedGRRMaxRatioPaper is the two-round ratio used in the proof of
// Theorem 3.4: (e^ε∞·e^εIRR + 1)/(e^ε∞ + e^εIRR). With εIRR from
// Algorithm 1 this equals e^ε1.
func ChainedGRRMaxRatioPaper(epsInf, epsIRR float64) float64 {
	a, c := math.Exp(epsInf), math.Exp(epsIRR)
	return (a*c + 1) / (a + c)
}

// ChainedGRRMaxRatioExact is the exact two-round output ratio over domain
// size g, accounting for all g−1 wrong memoized cells:
//
//	(p1p2 + (g−1)q1q2) / (q1p2 + p1q2 + (g−2)q1q2).
//
// For g = 2 it coincides with ChainedGRRMaxRatioPaper; for g > 2 it is
// strictly smaller, i.e. the paper's calibration is (safely) conservative.
func ChainedGRRMaxRatioExact(epsInf, epsIRR float64, g int) float64 {
	gf := float64(g)
	a, c := math.Exp(epsInf), math.Exp(epsIRR)
	p1 := a / (a + gf - 1)
	q1 := 1 / (a + gf - 1)
	p2 := c / (c + gf - 1)
	q2 := 1 / (c + gf - 1)
	num := p1*p2 + (gf-1)*q1*q2
	den := q1*p2 + p1*q2 + (gf-2)*q1*q2
	return num / den
}
