package simulation

import (
	"math"
	"strings"
	"testing"

	"github.com/loloha-ldp/loloha/internal/datasets"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// tinySyn builds a small synthetic dataset for fast grid tests.
func tinySyn(t *testing.T) *datasets.Dataset {
	t.Helper()
	return datasets.Syn(datasets.SynConfig{K: 12, N: 3000, Tau: 4, ChangeProb: 0.3, Seed: 9})
}

func tinyCfg() Config {
	return Config{
		EpsInfs: []float64{1.0, 3.0},
		Alphas:  []float64{0.5},
		Runs:    2,
		Seed:    1234,
		Workers: 2,
	}
}

func TestStandardSpecsCoverPaperMethods(t *testing.T) {
	specs := StandardSpecs("syn", 360)
	want := []string{"RAPPOR", "L-OSUE", "L-GRR", "BiLOLOHA", "OLOLOHA", "1BitFlipPM", "bBitFlipPM"}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if s.Name != want[i] {
			t.Errorf("spec %d = %q, want %q", i, s.Name, want[i])
		}
		p, err := s.Build(360, 2, 1)
		if err != nil {
			t.Errorf("%s build failed: %v", s.Name, err)
			continue
		}
		if p.K() != 360 {
			t.Errorf("%s K = %d", s.Name, p.K())
		}
	}
}

func TestStandardSpecsBucketChoice(t *testing.T) {
	// b = k for syn/adult; b = k/4 for folktables datasets.
	for _, c := range []struct {
		ds    string
		k, wb int
	}{
		{"syn", 360, 360}, {"adult", 96, 96}, {"db_mt", 1412, 353}, {"db_de", 1234, 308},
	} {
		spec, err := SpecByName(c.ds, c.k, "bBitFlipPM")
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.Build(c.k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.(*longitudinal.DBitFlipPM).B(); got != c.wb {
			t.Errorf("%s: b = %d, want %d", c.ds, got, c.wb)
		}
	}
	if _, err := SpecByName("syn", 10, "nope"); err == nil {
		t.Error("unknown spec accepted")
	}
}

func TestSpecByNameErrorEnumeratesProtocols(t *testing.T) {
	_, err := SpecByName("syn", 10, "nope")
	if err == nil {
		t.Fatal("unknown spec accepted")
	}
	for _, want := range StandardSpecNames() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %s", err, want)
		}
	}
}

func TestSpecStandardSpecsAreDeclarative(t *testing.T) {
	// The standard set carries no constructor closures: every entry is a
	// registry-resolvable ProtocolSpec template.
	for _, s := range StandardSpecs("syn", 40) {
		if s.BuildFunc != nil {
			t.Errorf("%s: standard spec carries a BuildFunc closure", s.Name)
		}
		if _, ok := longitudinal.LookupFamily(s.Proto.Family); !ok {
			t.Errorf("%s: family %q not registered", s.Name, s.Proto.Family)
		}
	}
}

func TestSpecStandardSpecsBucketGuardTinyDomain(t *testing.T) {
	// ⌊6/4⌋ = 1 bucket would be an invalid bucketizer; the folktables
	// quartering falls back to b = k instead.
	spec, err := SpecByName("db_mt", 6, "bBitFlipPM")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.(*longitudinal.DBitFlipPM).B(); got != 6 {
		t.Errorf("tiny-domain bucket count = %d, want fallback to k = 6", got)
	}
}

func TestSpecPinnedDomainMismatch(t *testing.T) {
	s := Spec{Name: "pinned", Proto: longitudinal.ProtocolSpec{Family: "L-GRR", K: 10}}
	if _, err := s.Build(12, 2, 1); err == nil {
		t.Error("spec pinned to k=10 built at k=12")
	}
	if _, err := s.Build(10, 2, 1); err != nil {
		t.Errorf("matching pinned k rejected: %v", err)
	}
}

func TestSpecBudgetFreeExternalFamilyGrid(t *testing.T) {
	// A family consuming neither eps_inf nor eps1 (k only) must run through
	// the grid: Build leaves budget fields the family does not declare at
	// zero instead of tripping strict validation.
	const fam = "sim-budget-free"
	longitudinal.RegisterFamily(fam, longitudinal.FamilyInfo{
		Doc:      "fixed-budget L-GRR wrapper (test-only)",
		Required: []longitudinal.Field{longitudinal.FieldK},
		Build: func(s longitudinal.ProtocolSpec) (longitudinal.Protocol, error) {
			return longitudinal.NewLGRR(s.K, 2, 1)
		},
	})
	defer longitudinal.RegisterFamily(fam, longitudinal.FamilyInfo{})

	ds := tinySyn(t)
	pts, err := RunMSE(ds, []Spec{{Name: fam, Proto: longitudinal.ProtocolSpec{Family: fam}}}, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Err != nil {
			t.Errorf("budget-free family cell error: %v", p.Err)
		}
	}
}

func TestSpecRegistryDrivenExternalFamilyGrid(t *testing.T) {
	// A family registered once (here: an alias wrapping L-GRR) runs through
	// the experiment grid exactly like a built-in — bit-identical to the
	// standard L-GRR spec at the same grid coordinates.
	const fam = "sim-ext-family"
	longitudinal.RegisterFamily(fam, longitudinal.FamilyInfo{
		Doc:      "L-GRR alias (test-only)",
		Required: []longitudinal.Field{longitudinal.FieldK, longitudinal.FieldEpsInf, longitudinal.FieldEps1},
		Build: func(s longitudinal.ProtocolSpec) (longitudinal.Protocol, error) {
			return longitudinal.NewLGRR(s.K, s.EpsInf, s.Eps1)
		},
	})
	defer longitudinal.RegisterFamily(fam, longitudinal.FamilyInfo{})

	ds := tinySyn(t)
	ext, err := RunMSE(ds, []Spec{{Name: fam, Proto: longitudinal.ProtocolSpec{Family: fam}}}, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	std, err := RunMSE(ds, []Spec{mustSpec(t, "L-GRR")}, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != len(std) {
		t.Fatalf("grid shapes differ: %d vs %d", len(ext), len(std))
	}
	for i := range ext {
		if ext[i].Err != nil {
			t.Fatalf("external family cell error: %v", ext[i].Err)
		}
		if ext[i].Mean != std[i].Mean || ext[i].Std != std[i].Std {
			t.Errorf("cell %d: external family (%v ± %v) differs from built-in (%v ± %v)",
				i, ext[i].Mean, ext[i].Std, std[i].Mean, std[i].Std)
		}
	}
}

func TestRunMSEGridShapeAndSanity(t *testing.T) {
	ds := tinySyn(t)
	specs := []Spec{
		mustSpec(t, "RAPPOR"), mustSpec(t, "BiLOLOHA"), mustSpec(t, "L-GRR"),
	}
	pts, err := RunMSE(ds, specs, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*2*1 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	for _, p := range pts {
		if p.Err != nil {
			t.Errorf("%s: unexpected build error %v", p.Protocol, p.Err)
			continue
		}
		if p.Runs != 2 {
			t.Errorf("%s: %d runs", p.Protocol, p.Runs)
		}
		if !(p.Mean > 0) || math.IsInf(p.Mean, 0) {
			t.Errorf("%s eps=%v: MSE %v not positive/finite", p.Protocol, p.EpsInf, p.Mean)
		}
		if p.Mean > 0.1 {
			t.Errorf("%s eps=%v: MSE %v implausibly large", p.Protocol, p.EpsInf, p.Mean)
		}
	}
}

func TestRunMSEDecreasesWithEps(t *testing.T) {
	ds := tinySyn(t)
	pts, err := RunMSE(ds, []Spec{mustSpec(t, "RAPPOR")}, Config{
		EpsInfs: []float64{0.5, 5.0}, Alphas: []float64{0.5}, Runs: 3, Seed: 7, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(pts[0].EpsInf < pts[1].EpsInf) {
		t.Fatal("points out of order")
	}
	if pts[1].Mean >= pts[0].Mean {
		t.Errorf("MSE did not improve with eps: %v -> %v", pts[0].Mean, pts[1].Mean)
	}
}

func TestRunMSEDeterministicAcrossWorkerCounts(t *testing.T) {
	ds := tinySyn(t)
	cfg1 := tinyCfg()
	cfg1.Workers = 1
	cfg4 := tinyCfg()
	cfg4.Workers = 4
	pts1, err := RunMSE(ds, []Spec{mustSpec(t, "BiLOLOHA")}, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	pts4, err := RunMSE(ds, []Spec{mustSpec(t, "BiLOLOHA")}, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts1 {
		if pts1[i].Mean != pts4[i].Mean {
			t.Errorf("point %d differs across worker counts: %v vs %v",
				i, pts1[i].Mean, pts4[i].Mean)
		}
	}
}

// TestShardCountsGiveIdenticalOutput: ReplaySharded and RunMSE collect on
// a Stream whose cohort blocks run on its shards; the shard count is a
// throughput knob only, so 1 and 3 shards give identical output.
func TestShardCountsGiveIdenticalOutput(t *testing.T) {
	ds := tinySyn(t)
	spec := mustSpec(t, "BiLOLOHA")
	proto, err := spec.Build(ds.K, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, sharded := ReplaySharded(ds, proto, 42, 1), ReplaySharded(ds, proto, 42, 3)
	for r := range serial {
		for v := range serial[r] {
			if serial[r][v] != sharded[r][v] {
				t.Fatalf("ReplaySharded round %d est[%d]: %v at 1 shard, %v at 3", r, v, serial[r][v], sharded[r][v])
			}
		}
	}

	specs := []Spec{spec, mustSpec(t, "1BitFlipPM")}
	cfg1, cfg3 := tinyCfg(), tinyCfg()
	cfg1.Shards, cfg3.Shards = 1, 3
	pts1, err := RunMSE(ds, specs, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	pts3, err := RunMSE(ds, specs, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts1 {
		if pts1[i].Mean != pts3[i].Mean || pts1[i].Std != pts3[i].Std {
			t.Errorf("RunMSE point %d (%s): %v±%v at 1 shard, %v±%v at 3", i, pts1[i].Protocol,
				pts1[i].Mean, pts1[i].Std, pts3[i].Mean, pts3[i].Std)
		}
	}
}

func TestRunPrivacyLossMatchesLedgerSemantics(t *testing.T) {
	// On a dataset where every user holds a constant value, every
	// memoization protocol spends exactly one ε∞.
	values := make([][]int, 5)
	row := make([]int, 200)
	for u := range row {
		row[u] = u % 12
	}
	for t := range values {
		values[t] = row
	}
	ds := datasets.Syn(datasets.SynConfig{K: 12, N: 200, Tau: 5, ChangeProb: 1e-12, Seed: 3})
	_ = values
	pts, err := RunPrivacyLoss(ds, []Spec{mustSpec(t, "RAPPOR"), mustSpec(t, "BiLOLOHA")}, Config{
		EpsInfs: []float64{2.0}, Alphas: []float64{0.5}, Runs: 1, Seed: 5, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		// Constant sequences: ε̌ = ε∞ for every user and protocol.
		if math.Abs(p.Mean-2.0) > 1e-9 {
			t.Errorf("%s: ε̌_avg = %v, want 2.0 (constant data)", p.Protocol, p.Mean)
		}
	}
}

func TestRunPrivacyLossOrderingMatchesFig4(t *testing.T) {
	// On churning data: RAPPOR ε̌ grows with distinct values; BiLOLOHA is
	// capped at 2ε∞; OLOLOHA at g·ε∞ — the Fig. 4 story. τ must be long
	// enough for the LOLOHA caps to bind (distinct values ≫ g).
	ds := datasets.Syn(datasets.SynConfig{K: 60, N: 500, Tau: 150, ChangeProb: 0.5, Seed: 21})
	specs := []Spec{
		mustSpecK(t, 60, "RAPPOR"), mustSpecK(t, 60, "BiLOLOHA"),
		mustSpecK(t, 60, "OLOLOHA"), mustSpecK(t, 60, "bBitFlipPM"),
	}
	pts, err := RunPrivacyLoss(ds, specs, Config{
		EpsInfs: []float64{5.0}, Alphas: []float64{0.6}, Runs: 1, Seed: 6, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]float64{}
	for _, p := range pts {
		by[p.Protocol] = p.Mean
	}
	if by["BiLOLOHA"] > 2*5.0+1e-9 {
		t.Errorf("BiLOLOHA ε̌ %v exceeds 2ε∞", by["BiLOLOHA"])
	}
	if by["RAPPOR"] < 5*by["BiLOLOHA"] {
		t.Errorf("RAPPOR ε̌ %v not far above BiLOLOHA %v", by["RAPPOR"], by["BiLOLOHA"])
	}
	if by["OLOLOHA"] >= by["RAPPOR"] {
		t.Errorf("OLOLOHA ε̌ %v not below RAPPOR %v", by["OLOLOHA"], by["RAPPOR"])
	}
	// bBitFlipPM with b=k tracks RAPPOR (every bucket change is a state)
	// and sits far above the capped OLOLOHA.
	if by["bBitFlipPM"] < 1.5*by["OLOLOHA"] {
		t.Errorf("bBitFlipPM ε̌ %v not well above OLOLOHA %v", by["bBitFlipPM"], by["OLOLOHA"])
	}
}

func TestRunDetectionTable2Shape(t *testing.T) {
	// τ large enough that each user has many bucket changes: detecting
	// *all* of them with a single memoized bit is then essentially
	// impossible (the Table 2 d=1 column).
	ds := datasets.Syn(datasets.SynConfig{K: 40, N: 300, Tau: 60, ChangeProb: 0.3, Seed: 31})
	pts, err := RunDetection(ds, 40, []int{1, 40}, Config{
		EpsInfs: []float64{1.0}, Alphas: []float64{0.5}, Runs: 1, Seed: 8, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, p := range pts {
		rates[p.Protocol] = p.Mean
	}
	if rates["d=1"] > 0.05 {
		t.Errorf("d=1 fully-detected rate %v, want ~0", rates["d=1"])
	}
	if rates["d=40"] < 0.95 {
		t.Errorf("d=b fully-detected rate %v, want ~1", rates["d=40"])
	}
}

// untallied hides every method but Protocol's, so it is not a
// TallyProtocol and the collection engine refuses it.
type untallied struct{ longitudinal.Protocol }

func TestRunGridReportsBuildErrors(t *testing.T) {
	ds := tinySyn(t)
	specs := []Spec{{
		Name: "broken",
		BuildFunc: func(k int, e, e1 float64) (longitudinal.Protocol, error) {
			return longitudinal.NewRAPPOR(k, e1, e) // swapped budgets: always invalid
		},
	}, {
		Name: "untallied",
		BuildFunc: func(k int, e, e1 float64) (longitudinal.Protocol, error) {
			p, err := longitudinal.NewRAPPOR(k, e, e1)
			return untallied{p}, err
		},
	}}
	pts, err := RunMSE(ds, specs, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Err == nil {
			t.Errorf("%s spec produced no error", p.Protocol)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ds := tinySyn(t)
	if _, err := RunMSE(ds, nil, Config{Runs: 1}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := RunMSE(ds, nil, Config{EpsInfs: []float64{1}, Alphas: []float64{0.5}}); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestReplayProducesRoundEstimates(t *testing.T) {
	ds := tinySyn(t)
	proto, err := longitudinal.NewLGRR(ds.K, 3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	est := Replay(ds, proto, 42)
	if len(est) != ds.Tau() {
		t.Fatalf("got %d rounds, want %d", len(est), ds.Tau())
	}
	for t0, round := range est {
		if len(round) != ds.K {
			t.Fatalf("round %d has %d bins", t0, len(round))
		}
		truth := ds.TrueFrequencies(t0)
		worst := 0.0
		for v := range round {
			if d := math.Abs(round[v] - truth[v]); d > worst {
				worst = d
			}
		}
		if worst > 0.2 {
			t.Errorf("round %d worst error %v", t0, worst)
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{1, 2, 3, 4})
	if math.Abs(m-2.5) > 1e-12 {
		t.Errorf("mean %v", m)
	}
	if math.Abs(s-math.Sqrt(5.0/3)) > 1e-12 {
		t.Errorf("std %v", s)
	}
	m1, s1 := meanStd([]float64{7})
	if m1 != 7 || s1 != 0 {
		t.Errorf("single value: %v %v", m1, s1)
	}
	mn, _ := meanStd(nil)
	if !math.IsNaN(mn) {
		t.Error("empty mean not NaN")
	}
}

func mustSpec(t *testing.T, name string) Spec {
	return mustSpecK(t, 12, name)
}

// mustSpecK resolves a standard spec for domain size k; k matters for the
// dBitFlipPM variants, whose bucket count is fixed at spec-building time.
func mustSpecK(t *testing.T, k int, name string) Spec {
	t.Helper()
	s, err := SpecByName("syn", k, name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
