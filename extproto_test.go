// An out-of-package protocol plugged into Stream: ingestion is open (the
// TallyProtocol interface), so a protocol defined entirely outside the
// library — here a noise-free histogram protocol in this external test
// package — round-trips through the wire service end to end, with no
// registration step and no protocol type enumerated in internal/server.
package loloha_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
)

// histBase is a trivial "protocol": clients report their value verbatim
// (no privacy — it exists to exercise the wire plumbing, not the
// estimators). It deliberately does NOT implement loloha.TallyProtocol, so
// a Stream must refuse it.
type histBase struct {
	k    int
	name string
}

func (p *histBase) Name() string          { return p.name }
func (p *histBase) K() int                { return p.k }
func (p *histBase) SteadyReportBits() int { return 8 }

func (p *histBase) NewClient(seed uint64) loloha.Client { return &histClient{k: p.k} }
func (p *histBase) NewAggregator() loloha.Aggregator {
	return &histAgg{k: p.k, round: loloha.Tally{Counts: make([]int64, p.k)}}
}

// histProto adds WireTallier, making the protocol ingestible.
type histProto struct{ histBase }

// WireTallier implements loloha.TallyProtocol.
func (p *histProto) WireTallier() loloha.WireTallier { return histTallier{k: p.k} }

// Statically assert which variant satisfies the interface.
var (
	_ loloha.TallyProtocol = (*histProto)(nil)
	_ loloha.Protocol      = (*histBase)(nil)
)

type histClient struct{ k int }

func (c *histClient) AppendReport(dst []byte, v int) []byte { return append(dst, byte(v)) }
func (c *histClient) WireRegistration() loloha.Registration { return loloha.Registration{} }
func (c *histClient) Charge(v int)                          {}
func (c *histClient) PrivacySpent() float64                 { return math.Inf(1) } // no privacy at all

type histTallier struct{ k int }

func (histTallier) PayloadStride() int                          { return 1 }
func (histTallier) CheckRegistration(loloha.Registration) error { return nil }

func (t histTallier) TallyWire(agg loloha.Aggregator, _ int, payload []byte, _ loloha.Registration) error {
	a, ok := agg.(*histAgg)
	if !ok {
		return fmt.Errorf("ext-hist: cannot tally into %T", agg)
	}
	if len(payload) != 1 {
		return fmt.Errorf("ext-hist: payload is %d bytes, want 1", len(payload))
	}
	v := int(payload[0])
	if v >= t.k {
		return fmt.Errorf("ext-hist: value %d outside [0,%d)", v, t.k)
	}
	a.round.Counts[v]++
	a.round.N++
	return nil
}

// histAgg keeps its whole round in a loloha.Tally, which is all a Stream
// needs to shard, snapshot and merge it.
type histAgg struct {
	k     int
	round loloha.Tally
}

func (a *histAgg) EstimateDomain() int  { return a.k }
func (a *histAgg) Tally() *loloha.Tally { return &a.round }
func (a *histAgg) EndRound() []float64 {
	est := make([]float64, a.k)
	if a.round.N > 0 {
		for v, c := range a.round.Counts {
			est[v] = float64(c) / float64(a.round.N)
		}
	}
	a.round.Reset()
	return est
}

func runExternalProtocol(t *testing.T, proto loloha.Protocol) {
	t.Helper()
	const n = 64
	userIDs := make([]int, n)
	payloads := make([][]byte, n)
	for u := 0; u < n; u++ {
		userIDs[u] = u
		payloads[u] = proto.NewClient(0).AppendReport(nil, u%4)
	}
	// The same batch through the default shard count and a serial stream:
	// the shard fold must publish identical estimates.
	collect := func(opts ...loloha.StreamOption) (*loloha.Stream, loloha.RoundResult) {
		stream, err := loloha.NewStream(proto, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sub := stream.Subscribe()
		for _, u := range userIDs {
			if err := stream.Enroll(u, loloha.Registration{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := stream.IngestBatch(userIDs, payloads); err != nil {
			t.Fatal(err)
		}
		stream.CloseRound()
		return stream, <-sub
	}
	stream, res := collect()
	_, serial := collect(loloha.WithShards(1))
	if res.Reports != n || !slices.Equal(res.Estimates, serial.Estimates) {
		t.Fatalf("%d shards: %d reports, estimates %v; 1 shard: %d reports, %v",
			stream.Shards(), res.Reports, res.Estimates, serial.Reports, serial.Estimates)
	}
	for v := 0; v < 4; v++ {
		if math.Abs(res.Estimates[v]-0.25) > 1e-12 {
			t.Fatalf("est[%d] = %v, want 0.25 exactly (protocol is noise-free)", v, res.Estimates[v])
		}
	}
	if err := stream.Ingest(0, []byte{0xFF}); err == nil {
		t.Fatal("out-of-domain external payload accepted")
	}
	if err := stream.Ingest(1, []byte{0x01, 0x02}); err == nil {
		t.Fatal("over-length external payload accepted")
	}
}

func TestExternalWireProtocolRoundTrip(t *testing.T) {
	runExternalProtocol(t, &histProto{histBase{k: 10, name: "ext-hist"}})
}

// TestExternalProtocolWithoutTallierRejected: tally-direct is the only
// ingestion route, so a protocol without a WireTallier is refused at
// construction rather than failing report by report.
func TestExternalProtocolWithoutTallierRejected(t *testing.T) {
	if _, err := loloha.NewStream(&histBase{k: 10, name: "ext-hist-untallied"}); err == nil {
		t.Fatal("protocol without a WireTallier accepted")
	}
}

func TestSpecExternalFamilyRegistry(t *testing.T) {
	// One RegisterFamily call makes an out-of-repository protocol
	// constructible from a declarative ProtocolSpec, and the built protocol
	// ingests like any built-in.
	const fam = "ext-hist-family"
	loloha.RegisterFamily(fam, loloha.FamilyInfo{
		Doc:      "noise-free histogram (test-only)",
		Required: []loloha.SpecField{loloha.SpecFieldK},
		Build: func(s loloha.ProtocolSpec) (loloha.Protocol, error) {
			return &histProto{histBase{k: s.K, name: fam}}, nil
		},
	})
	defer loloha.RegisterFamily(fam, loloha.FamilyInfo{}) // no Build unregisters

	if reg := loloha.Families(); !slices.Contains(reg, fam) {
		t.Fatalf("registered family %q missing from Families() = %v", fam, reg)
	}
	proto, err := loloha.ProtocolSpec{Family: fam, K: 10}.Build()
	if err != nil {
		t.Fatal(err)
	}
	runExternalProtocol(t, proto)
	// histProto does not implement SpecProtocol; SpecOf reports that
	// honestly instead of inventing a description.
	if _, ok := loloha.SpecOf(proto); ok {
		t.Error("SpecOf invented a spec for a protocol without Spec()")
	}
}
