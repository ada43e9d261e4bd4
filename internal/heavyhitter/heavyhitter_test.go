package heavyhitter

import (
	"math"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 0, Threshold: 0.1},
		{K: 10, Threshold: 0},
		{K: 10, Threshold: 1},
		{K: 10, Threshold: 0.1, Hysteresis: 1.5},
		{K: 10, Threshold: 0.1, Alpha: 2},
		{K: 10, Threshold: 0.1, Alpha: -0.5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{K: 10, Threshold: 0.1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestEWMASmoothingMath(t *testing.T) {
	tr, err := New(Config{K: 2, Threshold: 0.5, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe([]float64{1.0, 0.0})
	tr.Observe([]float64{0.0, 1.0})
	// After seeding with round 0 and folding round 1 at α=0.5:
	want := []float64{0.5, 0.5}
	got := tr.Smoothed()
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-12 {
			t.Errorf("smoothed[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	if tr.Rounds() != 2 {
		t.Errorf("rounds = %d", tr.Rounds())
	}
}

func TestDetectionAndOrdering(t *testing.T) {
	tr, _ := New(Config{K: 5, Threshold: 0.2, Alpha: 1})
	tr.Observe([]float64{0.5, 0.3, 0.1, 0.05, 0.05})
	hh := tr.HeavyHitters()
	if len(hh) != 2 {
		t.Fatalf("got %d hitters: %+v", len(hh), hh)
	}
	if hh[0].Value != 0 || hh[1].Value != 1 {
		t.Errorf("ordering wrong: %+v", hh)
	}
	if hh[0].Since != 0 {
		t.Errorf("Since = %d, want 0", hh[0].Since)
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	// Threshold 0.2 with hysteresis 0.8 → exit at 0.16. A value that
	// oscillates between 0.17 and 0.21 must stay active once admitted.
	tr, _ := New(Config{K: 1, Threshold: 0.2, Hysteresis: 0.8, Alpha: 1})
	tr.Observe([]float64{0.21})
	if len(tr.HeavyHitters()) != 1 {
		t.Fatal("hitter not admitted")
	}
	for i := 0; i < 5; i++ {
		tr.Observe([]float64{0.17})
		if len(tr.HeavyHitters()) != 1 {
			t.Fatalf("hitter dropped above exit threshold at round %d", i+1)
		}
	}
	tr.Observe([]float64{0.1})
	if len(tr.HeavyHitters()) != 0 {
		t.Error("hitter survived below exit threshold")
	}
}

func TestSinceTracksReadmission(t *testing.T) {
	tr, _ := New(Config{K: 1, Threshold: 0.2, Hysteresis: 1, Alpha: 1})
	tr.Observe([]float64{0.5})  // round 0: admitted
	tr.Observe([]float64{0.05}) // round 1: dropped
	tr.Observe([]float64{0.5})  // round 2: readmitted
	hh := tr.HeavyHitters()
	if len(hh) != 1 || hh[0].Since != 2 {
		t.Errorf("readmission Since wrong: %+v", hh)
	}
}

func TestObservePanicsOnWrongLength(t *testing.T) {
	tr, _ := New(Config{K: 3, Threshold: 0.1})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length estimates accepted")
		}
	}()
	tr.Observe([]float64{0.1})
}

func TestEndToEndWithLolohaEstimates(t *testing.T) {
	// Plant two heavy values in a 60-value domain, run BiLOLOHA for a few
	// rounds, and require the tracker to find exactly those two.
	const k, n, rounds = 60, 8000, 6
	proto, err := core.NewBinary(k, 3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]longitudinal.Client, n)
	values := make([]int, n)
	r := randsrc.NewSeeded(41)
	for u := range clients {
		clients[u] = proto.NewClient(uint64(u))
		switch {
		case u < n*4/10:
			values[u] = 7
		case u < n*7/10:
			values[u] = 23
		default:
			values[u] = r.Intn(k)
		}
	}
	agg := proto.NewAggregator()
	threshold := SuggestedThreshold(proto.Params(), n, 0.5, 3)
	if threshold > 0.1 {
		t.Fatalf("suggested threshold %v too coarse for the planted hitters", threshold)
	}
	tr, err := New(Config{K: k, Threshold: 0.1, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tallier := proto.WireTallier()
	for round := 0; round < rounds; round++ {
		for u, v := range values {
			cl := clients[u]
			if err := tallier.TallyWire(agg, u, cl.AppendReport(nil, v), cl.WireRegistration()); err != nil {
				t.Fatal(err)
			}
		}
		tr.Observe(agg.EndRound())
	}
	hh := tr.HeavyHitters()
	if len(hh) != 2 {
		t.Fatalf("got %d hitters, want 2: %+v", len(hh), hh)
	}
	if hh[0].Value != 7 || hh[1].Value != 23 {
		t.Errorf("wrong hitters: %+v", hh)
	}
	if math.Abs(hh[0].Freq-0.4) > 0.05 || math.Abs(hh[1].Freq-0.3) > 0.05 {
		t.Errorf("hitter frequencies off: %+v", hh)
	}
}

func TestNoiseFloorAndSuggestedThreshold(t *testing.T) {
	params := longitudinal.ChainParams{P1: 0.7, Q1: 0.5, P2: 0.8, Q2: 0.2}
	nf := NoiseFloor(params, 10000)
	if !(nf > 0) {
		t.Fatalf("noise floor %v", nf)
	}
	// Smoothing shrinks the effective floor; alpha=1 recovers z·sd.
	full := SuggestedThreshold(params, 10000, 1, 3)
	if math.Abs(full-3*nf) > 1e-12 {
		t.Errorf("alpha=1 threshold %v, want %v", full, 3*nf)
	}
	smoothed := SuggestedThreshold(params, 10000, 0.2, 3)
	if smoothed >= full {
		t.Error("smoothing did not lower the threshold")
	}
}
