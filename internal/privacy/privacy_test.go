package privacy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLedgerChargesDistinctUnits(t *testing.T) {
	l := NewLedger(0.5, 10)
	if l.Spent() != 0 {
		t.Fatal("fresh ledger spent != 0")
	}
	l.Charge(3)
	l.Charge(3)
	l.Charge(3)
	if got := l.Spent(); got != 0.5 {
		t.Errorf("one distinct unit: spent %v, want 0.5", got)
	}
	l.Charge(7)
	if got := l.Spent(); got != 1.0 {
		t.Errorf("two distinct units: spent %v, want 1.0", got)
	}
	if l.Units() != 2 {
		t.Errorf("Units = %d, want 2", l.Units())
	}
}

func TestLedgerCap(t *testing.T) {
	l := NewLedger(1.0, 3)
	for u := 0; u < 100; u++ {
		l.Charge(u)
	}
	if got := l.Spent(); got != 3.0 {
		t.Errorf("capped spend %v, want 3.0", got)
	}
	if got := l.Cap(); got != 3.0 {
		t.Errorf("Cap = %v, want 3.0", got)
	}
}

func TestLedgerMonotone(t *testing.T) {
	l := NewLedger(0.7, 1000)
	prev := 0.0
	units := []int{5, 5, 2, 9, 2, 5, 11, 11, 0}
	for _, u := range units {
		l.Charge(u)
		if s := l.Spent(); s < prev {
			t.Fatalf("Spent decreased: %v -> %v", prev, s)
		} else {
			prev = s
		}
	}
}

func TestLedgerQuickSpentEqualsDistinct(t *testing.T) {
	f := func(units []uint8) bool {
		l := NewLedger(0.25, 1<<20)
		distinct := make(map[int]bool)
		for _, u := range units {
			l.Charge(int(u))
			distinct[int(u)] = true
		}
		return math.Abs(l.Spent()-0.25*float64(len(distinct))) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ledgerMatchesMap charges units into a ledger with worst case maxUnits
// and into a map, and reports the first disagreement on Units or Spent.
func ledgerMatchesMap(t *testing.T, maxUnits int, units []int) {
	t.Helper()
	const eps = 0.375
	l := NewLedger(eps, maxUnits)
	ref := make(map[int]struct{})
	for i, u := range units {
		l.Charge(u)
		ref[u] = struct{}{}
		if l.Units() != len(ref) {
			t.Fatalf("maxUnits=%d after unit %d (#%d): Units = %d, want %d", maxUnits, u, i, l.Units(), len(ref))
		}
		want := eps * float64(min(len(ref), maxUnits))
		if l.Spent() != want {
			t.Fatalf("maxUnits=%d after unit %d (#%d): Spent = %v, want %v", maxUnits, u, i, l.Spent(), want)
		}
	}
}

// TestLedgerQuickMatchesMap checks Charge/Units/Spent against a map of
// the units seen, with units drawn on both sides of maxUnits so the
// bitset's growth path runs.
func TestLedgerQuickMatchesMap(t *testing.T) {
	f := func(maxRaw uint8, raw []uint16) bool {
		maxUnits := int(maxRaw)%130 + 1
		units := make([]int, len(raw))
		for i, r := range raw {
			units[i] = int(r) % (3*maxUnits + 130)
		}
		ledgerMatchesMap(t, maxUnits, units)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLedgerGrowsPastMaxUnits(t *testing.T) {
	// One word covers maxUnits = 2; units far past it grow the bitset
	// and keep everything charged before.
	ledgerMatchesMap(t, 2, []int{1, 0, 1, 64, 1000, 63, 64, 5000, 0, 129, 1000})
}

func TestLedgerZeroAlloc(t *testing.T) {
	l := NewLedger(1, 360)
	allocs := testing.AllocsPerRun(10, func() {
		for u := 0; u < 360; u += 7 {
			l.Charge(u)
		}
		_ = l.Units()
		_ = l.Spent()
	})
	if allocs != 0 {
		t.Errorf("Charge of in-range units allocates %v times per run, want 0", allocs)
	}
}

func TestLedgerRejectsNegativeUnit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative unit did not panic")
		}
	}()
	NewLedger(1, 4).Charge(-1)
}

// FuzzLedger checks the ledger against a map reference: the first byte
// picks maxUnits, and each following pair of bytes is one unit (up to
// 65535, far past any maxUnits, so growth runs too).
func FuzzLedger(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{63, 0, 63, 0, 64, 0, 65, 0, 63})
	f.Add([]byte{200, 0xFF, 0xFF, 0, 7, 0x01, 0x00, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		maxUnits := int(data[0]) + 1
		units := make([]int, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			units = append(units, int(data[i])<<8|int(data[i+1]))
		}
		ledgerMatchesMap(t, maxUnits, units)
	})
}

func TestLedgerPanicsOnBadConstruction(t *testing.T) {
	for _, c := range []struct {
		eps   float64
		units int
	}{{0, 5}, {-1, 5}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLedger(%v,%d) did not panic", c.eps, c.units)
				}
			}()
			NewLedger(c.eps, c.units)
		}()
	}
}

func TestSequentialComposition(t *testing.T) {
	if got := SequentialComposition(0.5, 1.0, 0.25); got != 1.75 {
		t.Errorf("composition = %v, want 1.75", got)
	}
	if got := SequentialComposition(); got != 0 {
		t.Errorf("empty composition = %v, want 0", got)
	}
}

func TestTheorem31Bound(t *testing.T) {
	// With per-step leakage α = 0.1, after τ = 100 steps the sequence
	// cannot be ε-LDP for any ε ≤ 10.
	if got := MinimalUtilityLeak(0.1, 100); math.Abs(got-10) > 1e-12 {
		t.Errorf("leak = %v, want 10", got)
	}
	if !BreaksLDP(0.1, 5, 100) {
		t.Error("τ=100 α=0.1 should break ε=5 LDP (τ ≥ ε/α)")
	}
	if BreaksLDP(0.1, 11, 100) {
		t.Error("τ=100 α=0.1 should not yet break ε=11 LDP")
	}
	if !BreaksLDP(0.1, 10, 100) {
		t.Error("boundary τ = ε/α counts as broken per Theorem 3.1")
	}
}

func TestRatioTrackerAccumulates(t *testing.T) {
	var rt RatioTracker
	for i := 0; i < 50; i++ {
		rt.Observe(math.E) // each step leaks exactly 1 nat
	}
	if got := rt.LogRatio(); math.Abs(got-50) > 1e-9 {
		t.Errorf("logRatio = %v, want 50", got)
	}
}

func TestRatioTrackerRejectsSubUnit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ratio < 1 did not panic")
		}
	}()
	var rt RatioTracker
	rt.Observe(0.5)
}

func TestRatioTrackerMatchesTheorem31(t *testing.T) {
	// The inductive construction: per-step ratio ≥ e^α ⇒ after τ steps the
	// mechanism distinguishes two sequences at e^{τα}, hence it is not
	// ε-LDP whenever τα > ε — exactly BreaksLDP.
	const alpha, tau = 0.2, 60
	var rt RatioTracker
	for i := 0; i < tau; i++ {
		rt.Observe(math.Exp(alpha))
	}
	eps := rt.LogRatio() - 0.5
	if !BreaksLDP(alpha, eps, tau) {
		t.Error("tracker and BreaksLDP disagree")
	}
}

func TestGRRMaxRatio(t *testing.T) {
	// Theorem 3.3 instantiation: p = e^ε/(e^ε+g−1) gives ratio e^ε.
	for _, eps := range []float64{0.5, 1, 3} {
		for _, g := range []int{2, 4, 16} {
			p := math.Exp(eps) / (math.Exp(eps) + float64(g) - 1)
			if got := GRRMaxRatio(p, g); math.Abs(got-math.Exp(eps)) > 1e-9 {
				t.Errorf("GRRMaxRatio(eps=%v,g=%d) = %v, want e^eps = %v",
					eps, g, got, math.Exp(eps))
			}
		}
	}
}

func TestChainedRatioTheorem34Identity(t *testing.T) {
	// With εIRR = ln((e^{ε∞+ε1}−1)/(e^{ε∞}−e^{ε1})), the paper ratio
	// (e^ε∞·e^εIRR + 1)/(e^ε∞ + e^εIRR) must equal e^ε1 exactly.
	for _, epsInf := range []float64{0.5, 1, 2, 5} {
		for _, alpha := range []float64{0.1, 0.3, 0.6} {
			eps1 := alpha * epsInf
			epsIRR := math.Log((math.Exp(epsInf+eps1) - 1) / (math.Exp(epsInf) - math.Exp(eps1)))
			got := ChainedGRRMaxRatioPaper(epsInf, epsIRR)
			if math.Abs(got-math.Exp(eps1)) > 1e-9 {
				t.Errorf("eps∞=%v α=%v: paper ratio %v, want e^ε1 = %v",
					epsInf, alpha, got, math.Exp(eps1))
			}
		}
	}
}

func TestChainedRatioExactMatchesPaperAtG2(t *testing.T) {
	for _, epsInf := range []float64{0.5, 2, 5} {
		epsIRR := 0.8 * epsInf
		paper := ChainedGRRMaxRatioPaper(epsInf, epsIRR)
		exact := ChainedGRRMaxRatioExact(epsInf, epsIRR, 2)
		if math.Abs(paper-exact) > 1e-9 {
			t.Errorf("g=2: exact %v != paper %v", exact, paper)
		}
	}
}

func TestChainedRatioExactConservativeForLargerG(t *testing.T) {
	// DESIGN.md "known discrepancies": for g > 2 the true output ratio is
	// strictly below the paper's bound, so calibrating with the paper's
	// formula yields a protocol that is at least ε1-LDP.
	for _, g := range []int{3, 5, 16} {
		for _, epsInf := range []float64{1.0, 3.0} {
			epsIRR := 0.7 * epsInf
			paper := ChainedGRRMaxRatioPaper(epsInf, epsIRR)
			exact := ChainedGRRMaxRatioExact(epsInf, epsIRR, g)
			if exact >= paper {
				t.Errorf("g=%d eps∞=%v: exact ratio %v not below paper bound %v",
					g, epsInf, exact, paper)
			}
		}
	}
}
