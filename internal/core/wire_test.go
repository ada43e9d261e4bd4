package core

import (
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// cellSupport adds one report to counts the way Algorithm 2 states it:
// every candidate v whose hash H_u(v) is the reported cell.
func cellSupport(counts []int64, cl *Client, cell byte) {
	for v := range counts {
		if cl.hash.Index(v) == int(cell) {
			counts[v]++
		}
	}
}

// TestLolohaReportWireRoundTrip: a LOLOHA payload is the sanitized cell in
// one byte for g = 16, and tallying it supports exactly the candidates the
// client's hash maps onto that cell.
func TestLolohaReportWireRoundTrip(t *testing.T) {
	const k = 200
	p, err := New(k, 16, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.newClient(9)
	for i := 0; i < 40; i++ {
		buf := cl.AppendReport(nil, i%k)
		if len(buf) != 1 || buf[0] >= 16 {
			t.Fatalf("g=16 payload %x, want one byte below 16", buf)
		}
		agg := p.NewAggregator()
		report := p.WireTallier().TallyWire(agg, 0, buf, cl.WireRegistration())
		want := make([]int64, k)
		cellSupport(want, cl, buf[0])
		if report != nil || !equalCounts(agg.Tally().Counts, want) {
			t.Fatalf("cell %d: tallied %v (err %v), want %v", buf[0], agg.Tally().Counts, report, want)
		}
	}
}

// TestLolohaWireAggregationEquivalence: estimates from tallied payloads
// are Eq. (3) over the naive Algorithm 2 support counts.
func TestLolohaWireAggregationEquivalence(t *testing.T) {
	const k, n = 64, 3000
	p, err := NewBinary(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	counts := make([]int64, k)
	r := randsrc.NewSeeded(5)
	for u := 0; u < n; u++ {
		cl := p.newClient(uint64(u))
		buf := cl.AppendReport(nil, r.Intn(k))
		cellSupport(counts, cl, buf[0])
		if err := p.WireTallier().TallyWire(agg, u, buf, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
	}
	got, want := agg.EndRound(), p.Params().EstimateAllL(counts, n)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("estimates diverge at v=%d: %v vs %v", v, got[v], want[v])
		}
	}
}

// TestDecodeReportErrors: an empty payload, a trailing byte and an
// out-of-domain cell are rejected and tally nothing.
func TestDecodeReportErrors(t *testing.T) {
	p, err := New(10, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	reg := longitudinal.Registration{HashSeed: 1}
	for _, payload := range [][]byte{nil, {1, 0}, {4}, {9}} {
		if err := p.WireTallier().TallyWire(agg, 0, payload, reg); err == nil {
			t.Errorf("payload %x accepted", payload)
		}
	}
	if agg.Tally().N != 0 {
		t.Fatal("a rejected payload was counted")
	}
}

func equalCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
