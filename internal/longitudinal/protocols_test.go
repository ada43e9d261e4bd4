package longitudinal

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"github.com/loloha-ldp/loloha/internal/domain"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// runRounds drives n clients over the value matrix values[t][u] and returns
// per-round estimates.
func runRounds(t *testing.T, p Protocol, values [][]int) [][]float64 {
	t.Helper()
	n := len(values[0])
	clients := make([]Client, n)
	for u := range clients {
		clients[u] = p.NewClient(randsrc.Derive(99, uint64(u)))
	}
	agg := p.NewAggregator()
	var out [][]float64
	for _, round := range values {
		for u, v := range round {
			tally(t, p, agg, u, clients[u], v)
		}
		out = append(out, agg.EndRound())
	}
	return out
}

// tally sends client cl's report of v, as user u, through the protocol's
// WireTallier into agg.
func tally(t testing.TB, p Protocol, agg Aggregator, u int, cl Client, v int) {
	t.Helper()
	tallyPayload(t, p, agg, u, cl.AppendReport(nil, v), cl.WireRegistration())
}

// tallyPayload tallies one payload through the protocol's WireTallier,
// failing the test on a rejection.
func tallyPayload(t testing.TB, p Protocol, agg Aggregator, u int, payload []byte, reg Registration) {
	t.Helper()
	if err := p.(TallyProtocol).WireTallier().TallyWire(agg, u, payload, reg); err != nil {
		t.Fatal(err)
	}
}

// staticValues builds τ identical rounds of a skewed assignment over [0..k).
func staticValues(n, k, tau int) [][]int {
	row := make([]int, n)
	for u := range row {
		// Heavily skewed: half the users at 0, then spread.
		switch {
		case u < n/2:
			row[u] = 0
		case u < 3*n/4:
			row[u] = 1 % k
		default:
			row[u] = u % k
		}
	}
	values := make([][]int, tau)
	for t := range values {
		values[t] = row
	}
	return values
}

func protocolsUnderTest(t *testing.T, k int, epsInf, eps1 float64) []Protocol {
	t.Helper()
	rappor, err := NewRAPPOR(k, epsInf, eps1)
	if err != nil {
		t.Fatal(err)
	}
	losue, err := NewLOSUE(k, epsInf, eps1)
	if err != nil {
		t.Fatal(err)
	}
	lgrr, err := NewLGRR(k, epsInf, eps1)
	if err != nil {
		t.Fatal(err)
	}
	dbit, err := NewDBitFlipPM(k, k, k, epsInf) // b = k, d = b
	if err != nil {
		t.Fatal(err)
	}
	return []Protocol{rappor, losue, lgrr, dbit}
}

func TestProtocolsEstimateStaticHistogram(t *testing.T) {
	const k, n, tau = 8, 20000, 3
	values := staticValues(n, k, tau)
	truth := domain.TrueFrequencies(values[0], k)
	for _, p := range protocolsUnderTest(t, k, 3.0, 1.5) {
		ests := runRounds(t, p, values)
		for round, est := range ests {
			if len(est) != k {
				t.Fatalf("%s: estimate length %d, want %d", p.Name(), len(est), k)
			}
			for v := 0; v < k; v++ {
				if math.Abs(est[v]-truth[v]) > 0.05 {
					t.Errorf("%s round %d: est[%d] = %v, truth %v",
						p.Name(), round, v, est[v], truth[v])
				}
			}
		}
	}
}

func TestMemoizationStableAcrossRounds(t *testing.T) {
	// Without the IRR step the memoized response would be constant; with
	// it, the *distribution* is constant. Here we check the PRR layer
	// directly: the same client reporting the same value twice must reuse
	// the same memoized basis. For dBitFlipPM (no IRR) the full report
	// must be bit-identical.
	dbit, err := NewDBitFlipPM(100, 10, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cl := dbit.NewClient(42)
	first := cl.AppendReport(nil, 33)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(cl.AppendReport(nil, 33), first) {
			t.Fatal("dBitFlipPM re-randomized a memoized value")
		}
	}
	// Values in the same bucket share the memoized response.
	same := cl.AppendReport(nil, 34) // bucket(33)==bucket(34) for k=100,b=10
	if !bytes.Equal(same, first) {
		t.Error("values in one bucket produced different memoized responses")
	}
}

func TestChainUEPRRMemoizationViaPRF(t *testing.T) {
	p, err := NewRAPPOR(16, 2.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(7).(*chainUEClient)
	for i := 0; i < 16; i++ {
		a := cl.prrBit(3, i)
		for rep := 0; rep < 5; rep++ {
			if cl.prrBit(3, i) != a {
				t.Fatal("PRR bit changed between invocations")
			}
		}
	}
}

func TestChainUEPRRBitBias(t *testing.T) {
	// Across many clients, the memoized PRR bit at the one-hot position
	// must be 1 with probability p1, elsewhere q1.
	p, err := NewRAPPOR(4, 2.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	params := p.Params()
	const trials = 50000
	onesHot, onesCold := 0, 0
	for s := 0; s < trials; s++ {
		cl := p.NewClient(uint64(s)).(*chainUEClient)
		if cl.prrBit(2, 2) {
			onesHot++
		}
		if cl.prrBit(2, 0) {
			onesCold++
		}
	}
	if got := float64(onesHot) / trials; math.Abs(got-params.P1) > 0.01 {
		t.Errorf("hot PRR bit rate %v, want %v", got, params.P1)
	}
	if got := float64(onesCold) / trials; math.Abs(got-params.Q1) > 0.01 {
		t.Errorf("cold PRR bit rate %v, want %v", got, params.Q1)
	}
}

func TestPrivacyLedgerRAPPORCountsDistinctValues(t *testing.T) {
	p, err := NewRAPPOR(50, 1.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(1)
	seq := []int{5, 5, 5, 9, 5, 9, 30, 5}
	wantUnits := []int{1, 1, 1, 2, 2, 2, 3, 3}
	for i, v := range seq {
		cl.AppendReport(nil, v)
		want := float64(wantUnits[i]) * 1.0
		if got := cl.PrivacySpent(); math.Abs(got-want) > 1e-12 {
			t.Errorf("after %d reports: spent %v, want %v", i+1, got, want)
		}
	}
}

func TestPrivacyLedgerLGRRCapsAtK(t *testing.T) {
	const k = 6
	p, err := NewLGRR(k, 2.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(1)
	for v := 0; v < k; v++ {
		cl.AppendReport(nil, v)
		cl.AppendReport(nil, v)
	}
	if got, want := cl.PrivacySpent(), float64(k)*2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spent %v, want cap %v", got, want)
	}
}

func TestPrivacyLedgerDBitStates(t *testing.T) {
	// With d = 1 the ledger can hold at most 2 states (the sampled bucket
	// and "other") no matter how wildly the value changes.
	p, err := NewDBitFlipPM(100, 10, 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(3)
	r := randsrc.NewSeeded(4)
	for i := 0; i < 200; i++ {
		cl.AppendReport(nil, r.Intn(100))
	}
	if got := cl.PrivacySpent(); got > 2*1.5+1e-12 {
		t.Errorf("1BitFlipPM spent %v, cap is 2ε∞ = 3", got)
	}
	// With d = b the ledger tracks distinct buckets, up to b.
	p2, err := NewDBitFlipPM(100, 10, 10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := p2.NewClient(3)
	for v := 0; v < 100; v++ {
		cl2.AppendReport(nil, v)
	}
	if got, want := cl2.PrivacySpent(), 10*1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("bBitFlipPM spent %v, want %v", got, want)
	}
}

func TestDBitFlipSampledBucketsFixed(t *testing.T) {
	p, err := NewDBitFlipPM(60, 12, 5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(9)
	first := slices.Clone(cl.WireRegistration().Sampled)
	for i := 0; i < 30; i++ {
		cl.AppendReport(nil, i%60)
		if !slices.Equal(cl.WireRegistration().Sampled, first) {
			t.Fatal("sampled buckets changed across rounds")
		}
	}
	// Sampled buckets must be d distinct values in [0..b).
	seen := map[int]bool{}
	for _, j := range first {
		if j < 0 || j >= 12 || seen[j] {
			t.Fatalf("bad sampled set %v", first)
		}
		seen[j] = true
	}
	if len(first) != 5 {
		t.Fatalf("sampled %d buckets, want d = 5", len(first))
	}
}

func TestDBitFlipEstimatesBuckets(t *testing.T) {
	// bBitFlipPM over a static distribution: bucket estimates must match
	// the folded truth.
	const k, b, n = 40, 8, 30000
	p, err := NewDBitFlipPM(k, b, b, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int, n)
	for u := range row {
		row[u] = (u * 7) % k
	}
	truth := p.Bucketizer().FoldFrequencies(domain.TrueFrequencies(row, k))
	ests := runRounds(t, p, [][]int{row})
	for j := 0; j < b; j++ {
		if math.Abs(ests[0][j]-truth[j]) > 0.05 {
			t.Errorf("bucket %d: est %v, truth %v", j, ests[0][j], truth[j])
		}
	}
}

func TestLGRRReportsStayInDomain(t *testing.T) {
	p, err := NewLGRR(12, 2.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(5)
	for i := 0; i < 500; i++ {
		rep := cl.AppendReport(nil, i%12)
		if len(rep) != 1 || rep[0] >= 12 {
			t.Fatalf("report %x outside domain", rep)
		}
	}
}

func TestIRRFreshAcrossRounds(t *testing.T) {
	// The IRR step must re-randomize: a RAPPOR client reporting the same
	// value many times should not emit identical bit vectors (that's the
	// whole defense against change detection).
	p, err := NewRAPPOR(64, 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(11)
	first := cl.AppendReport(nil, 7)
	distinct := false
	for i := 0; i < 10 && !distinct; i++ {
		if !bytes.Equal(cl.AppendReport(nil, 7), first) {
			distinct = true
		}
	}
	if !distinct {
		t.Error("10 IRR rounds produced identical reports; IRR looks frozen")
	}
}

// TestAggregatorRejectsForeignReports: a tallier refuses an aggregator of
// another protocol and leaves it untouched.
func TestAggregatorRejectsForeignReports(t *testing.T) {
	rappor, _ := NewRAPPOR(8, 2, 1)
	lgrr, _ := NewLGRR(8, 2, 1)
	dbit, _ := NewDBitFlipPM(8, 4, 2, 1)
	rappor16, _ := NewRAPPOR(16, 2, 1)
	for _, tc := range []struct {
		agg   Aggregator
		proto TallyProtocol
	}{{rappor.NewAggregator(), lgrr}, {lgrr.NewAggregator(), rappor}, {dbit.NewAggregator(), rappor}, {rappor16.NewAggregator(), rappor}} {
		cl := tc.proto.NewClient(1)
		if err := tc.proto.WireTallier().TallyWire(tc.agg, 0, cl.AppendReport(nil, 0), cl.WireRegistration()); err == nil {
			t.Errorf("%T accepted a %s report", tc.agg, tc.proto.Name())
		}
		if tc.agg.Tally().N != 0 {
			t.Errorf("%T counted a rejected report", tc.agg)
		}
	}
}

func TestEndRoundResetsState(t *testing.T) {
	p, _ := NewLGRR(4, 2, 1)
	agg := p.NewAggregator()
	tally(t, p, agg, 0, p.NewClient(1), 2)
	_ = agg.EndRound()
	// Second round with no reports: estimates are all-zero, not NaN.
	est := agg.EndRound()
	if len(est) != 4 {
		t.Fatalf("estimate length %d after empty round", len(est))
	}
	for v, e := range est {
		if e != 0 {
			t.Errorf("empty round estimate[%d] = %v, want 0", v, e)
		}
	}
	// Same guarantee for the bucket-domain aggregator.
	dbit, _ := NewDBitFlipPM(10, 5, 2, 1)
	if got := dbit.NewAggregator().EndRound(); len(got) != 5 || got[0] != 0 {
		t.Errorf("dBit empty round: %v", got)
	}
}

func TestReportEncodingSizes(t *testing.T) {
	// Table 1 comm column, measured: UE = k bits; L-GRR = ⌈log2 k⌉ bits;
	// dBitFlipPM = d bits (all byte-aligned in our wire format).
	const k = 360
	rappor, _ := NewRAPPOR(k, 2, 1)
	if got := len(rappor.NewClient(1).AppendReport(nil, 0)); got != (k+7)/8 {
		t.Errorf("RAPPOR report %d bytes, want %d", got, (k+7)/8)
	}
	lgrr, _ := NewLGRR(k, 2, 1)
	if got := len(lgrr.NewClient(1).AppendReport(nil, 0)); got != 2 {
		t.Errorf("L-GRR report %d bytes, want 2", got)
	}
	dbit, _ := NewDBitFlipPM(k, 90, 4, 2)
	if got := len(dbit.NewClient(1).AppendReport(nil, 0)); got != 1 {
		t.Errorf("dBit report %d bytes, want 1", got)
	}
}

func TestSteadyReportBits(t *testing.T) {
	rappor, _ := NewRAPPOR(360, 2, 1)
	if rappor.SteadyReportBits() != 360 {
		t.Errorf("RAPPOR bits = %d, want 360", rappor.SteadyReportBits())
	}
	lgrr, _ := NewLGRR(360, 2, 1)
	if lgrr.SteadyReportBits() != 9 {
		t.Errorf("L-GRR bits = %d, want 9", lgrr.SteadyReportBits())
	}
	dbit, _ := NewDBitFlipPM(360, 90, 7, 2)
	if dbit.SteadyReportBits() != 7 {
		t.Errorf("dBit bits = %d, want 7", dbit.SteadyReportBits())
	}
}

func TestProtocolMetadata(t *testing.T) {
	d1, _ := NewDBitFlipPM(100, 20, 1, 1)
	if d1.Name() != "1BitFlipPM" {
		t.Errorf("name %q", d1.Name())
	}
	db, _ := NewDBitFlipPM(100, 20, 20, 1)
	if db.Name() != "bBitFlipPM" {
		t.Errorf("name %q", db.Name())
	}
	dm, _ := NewDBitFlipPM(100, 20, 5, 1)
	if dm.Name() != "5BitFlipPM" {
		t.Errorf("name %q", dm.Name())
	}
	if d1.K() != 100 || d1.B() != 20 || d1.D() != 1 {
		t.Error("metadata accessors wrong")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewRAPPOR(1, 2, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewLGRR(10, 1, 2); err == nil {
		t.Error("eps1 > epsInf accepted")
	}
	if _, err := NewDBitFlipPM(10, 5, 0, 1); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewDBitFlipPM(10, 5, 6, 1); err == nil {
		t.Error("d>b accepted")
	}
	if _, err := NewDBitFlipPM(10, 5, 2, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}
