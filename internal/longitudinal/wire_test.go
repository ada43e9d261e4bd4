package longitudinal

import (
	"slices"
	"testing"

	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// Wire round trips: a client's AppendReport payload has the documented
// layout, and its family's WireTallier reads back exactly the support
// that layout carries.

// payloadBit reads bit i of a little-endian bit-packed payload.
func payloadBit(payload []byte, i int) bool { return payload[i/8]>>(i%8)&1 == 1 }

// TestUEReportWireRoundTrip: a chained-UE payload is k bits in ⌈k/8⌉
// bytes, and tallying it counts exactly its set bits.
func TestUEReportWireRoundTrip(t *testing.T) {
	const k = 100
	p, err := NewRAPPOR(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(1)
	for i := 0; i < 20; i++ {
		buf := cl.AppendReport(nil, i%k)
		if len(buf) != (k+7)/8 {
			t.Fatalf("payload is %d bytes, want %d", len(buf), (k+7)/8)
		}
		agg := p.NewAggregator()
		tallyPayload(t, p, agg, 0, buf, Registration{})
		for v, c := range agg.Tally().Counts {
			if want := payloadBit(buf, v); (c == 1) != want || c > 1 {
				t.Fatalf("bit %d: payload %v, tallied %d", v, want, c)
			}
		}
	}
}

// TestGRRValueReportWireRoundTrip: an L-GRR payload is the value
// little-endian in ⌈log₂k/8⌉ bytes, and tallying it counts that value.
func TestGRRValueReportWireRoundTrip(t *testing.T) {
	const k = 300
	p, err := NewLGRR(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(2)
	for i := 0; i < 50; i++ {
		buf := cl.AppendReport(nil, i%k)
		if len(buf) != 2 {
			t.Fatalf("payload is %d bytes, want 2", len(buf))
		}
		x := int(buf[0]) | int(buf[1])<<8
		agg := p.NewAggregator()
		tallyPayload(t, p, agg, 0, buf, Registration{})
		want := make([]int64, k)
		want[x] = 1
		if x >= k || !slices.Equal(agg.Tally().Counts, want) {
			t.Fatalf("payload %x (value %d) tallied as %v", buf, x, agg.Tally().Counts)
		}
	}
}

// TestDBitReportWireRoundTrip: a dBitFlipPM payload is d bits in ⌈d/8⌉
// bytes, bit l answering for the registered sampled bucket l.
func TestDBitReportWireRoundTrip(t *testing.T) {
	p, err := NewDBitFlipPM(100, 20, 9, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.NewClient(3)
	reg := cl.WireRegistration()
	buf := cl.AppendReport(nil, 5)
	if len(buf) != 2 { // 9 bits -> 2 bytes
		t.Fatalf("encoded %d bytes, want 2", len(buf))
	}
	agg := p.NewAggregator()
	tallyPayload(t, p, agg, 0, buf, reg)
	want := make([]int64, 20)
	for l, j := range reg.Sampled {
		if payloadBit(buf, l) {
			want[j]++
		}
	}
	if !slices.Equal(agg.Tally().Counts, want) {
		t.Fatalf("payload %x over sampled %v tallied as %v, want %v", buf, reg.Sampled, agg.Tally().Counts, want)
	}
}

// TestDecodeErrors: short payloads and an empty sampled set are rejected
// and tally nothing.
func TestDecodeErrors(t *testing.T) {
	rappor, _ := NewRAPPOR(100, 2, 1)
	lgrr, _ := NewLGRR(300, 2, 1)
	dbit, _ := NewDBitFlipPM(100, 20, 3, 1.5)
	for label, tc := range map[string]struct {
		proto   TallyProtocol
		payload []byte
		reg     Registration
	}{
		"short UE":      {rappor, make([]byte, 1), Registration{}},
		"short GRR":     {lgrr, nil, Registration{}},
		"short dBit":    {dbit, nil, Registration{Sampled: []int{1, 2, 3}}},
		"empty sampled": {dbit, []byte{0}, Registration{}},
	} {
		agg := tc.proto.NewAggregator()
		if err := tc.proto.WireTallier().TallyWire(agg, 0, tc.payload, tc.reg); err == nil {
			t.Errorf("%s accepted", label)
		}
		if agg.Tally().N != 0 {
			t.Errorf("%s: rejected payload was counted", label)
		}
	}
}

// TestWireAggregationEquivalence: estimates from tallied payloads are
// Eq. (3) over the payloads' per-position bit counts — the full
// production path from client bytes to estimates.
func TestWireAggregationEquivalence(t *testing.T) {
	const k, n = 50, 2000
	p, err := NewLOSUE(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg := p.NewAggregator()
	counts := make([]int64, k)
	r := randsrc.NewSeeded(4)
	for u := 0; u < n; u++ {
		buf := p.NewClient(uint64(u)).AppendReport(nil, r.Intn(k))
		for v := range counts {
			if payloadBit(buf, v) {
				counts[v]++
			}
		}
		tallyPayload(t, p, agg, u, buf, Registration{})
	}
	if got, want := agg.EndRound(), p.Params().EstimateAllL(counts, n); !equalFloats(got, want) {
		t.Fatalf("estimates %v, want Eq. (3) of the payload bit counts %v", got, want)
	}
}
