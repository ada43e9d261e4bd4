// Package longitudinal exercises the wirecontract analyzer with a
// miniature replica of the registry surface.
package longitudinal

type ProtocolSpec struct{ Name string }

type Protocol interface{ K() int }

type SpecProtocol interface {
	Protocol
	Spec() ProtocolSpec
}

type WireTallier interface {
	PayloadStride() int
	TallyWire(payload []byte) error
}

type TallyProtocol interface{ WireTallier() WireTallier }

type AppendReporter interface{ AppendReport([]byte, int) []byte }

type Aggregator interface{ EndRound() []float64 }

// SnapshotTallier is the durability contract: aggregators that can
// export and re-import their tally state for snapshots and merges.
type SnapshotTallier interface {
	ExportTally(dst []int64) ([]int64, int)
	ImportTally(counts []int64, n int) error
}

type FamilyInfo struct {
	Build func(ProtocolSpec) (Protocol, error)
}

func RegisterFamily(name string, info FamilyInfo) {}

type goodTallier struct{}

func (goodTallier) TallyWire(payload []byte) error { return nil }
func (goodTallier) PayloadStride() int             { return 1 }

// good is the fully asserted fast-path family.
type good struct{}

func (*good) K() int                   { return 2 }
func (*good) Spec() ProtocolSpec       { return ProtocolSpec{Name: "good"} }
func (*good) WireTallier() WireTallier { return goodTallier{} }

func (p *good) NewClient(seed uint64) *goodClient { return &goodClient{} }
func (p *good) NewAggregator() Aggregator         { return &goodAgg{} }

type goodClient struct{}

func (*goodClient) AppendReport(dst []byte, v int) []byte { return dst }

// goodAgg carries the full durability contract.
type goodAgg struct{}

func (*goodAgg) EndRound() []float64                     { return nil }
func (*goodAgg) ExportTally(dst []int64) ([]int64, int)  { return dst, 0 }
func (*goodAgg) ImportTally(counts []int64, n int) error { return nil }

var (
	_ SpecProtocol    = (*good)(nil)
	_ TallyProtocol   = (*good)(nil)
	_ AppendReporter  = (*goodClient)(nil)
	_ SnapshotTallier = (*goodAgg)(nil)
)

// missing implements the wire path but forgot its assertions.
type missing struct{}

func (*missing) K() int                   { return 2 }
func (*missing) Spec() ProtocolSpec       { return ProtocolSpec{Name: "missing"} }
func (*missing) WireTallier() WireTallier { return goodTallier{} }

// boxedProto has no tallier: a Stream cannot ingest it.
type boxedProto struct{}

func (*boxedProto) K() int             { return 2 }
func (*boxedProto) Spec() ProtocolSpec { return ProtocolSpec{Name: "boxed"} }

var _ SpecProtocol = (*boxedProto)(nil)

// snapNoAgg tallies but cannot export its counts: the family cannot take
// part in snapshots or collector-tree merges.
type snapNoAgg struct{}

func (*snapNoAgg) EndRound() []float64 { return nil }

type snapNo struct{}

func (*snapNo) K() int                    { return 2 }
func (*snapNo) Spec() ProtocolSpec        { return ProtocolSpec{Name: "snapNo"} }
func (*snapNo) WireTallier() WireTallier  { return goodTallier{} }
func (*snapNo) NewAggregator() Aggregator { return &snapNoAgg{} }

var (
	_ SpecProtocol  = (*snapNo)(nil)
	_ TallyProtocol = (*snapNo)(nil)
)

// snapMissingAgg implements the durability contract but forgot the
// assertion that keeps it implemented.
type snapMissingAgg struct{}

func (*snapMissingAgg) EndRound() []float64                     { return nil }
func (*snapMissingAgg) ExportTally(dst []int64) ([]int64, int)  { return dst, 0 }
func (*snapMissingAgg) ImportTally(counts []int64, n int) error { return nil }

type snapMissing struct{}

func (*snapMissing) K() int                    { return 2 }
func (*snapMissing) Spec() ProtocolSpec        { return ProtocolSpec{Name: "snapMissing"} }
func (*snapMissing) WireTallier() WireTallier  { return goodTallier{} }
func (*snapMissing) NewAggregator() Aggregator { return &snapMissingAgg{} }

var (
	_ SpecProtocol  = (*snapMissing)(nil)
	_ TallyProtocol = (*snapMissing)(nil)
)

func init() {
	RegisterFamily("good", FamilyInfo{ // ok: implemented and asserted
		Build: func(s ProtocolSpec) (Protocol, error) { return &good{}, nil },
	})
	RegisterFamily("missing", FamilyInfo{ // want "var _ SpecProtocol" "var _ TallyProtocol"
		Build: func(s ProtocolSpec) (Protocol, error) { return &missing{}, nil },
	})
	RegisterFamily("boxed", FamilyInfo{ // want "does not implement TallyProtocol"
		Build: func(s ProtocolSpec) (Protocol, error) { return &boxedProto{}, nil },
	})
	RegisterFamily("snapNo", FamilyInfo{ // want "does not implement SnapshotTallier"
		Build: func(s ProtocolSpec) (Protocol, error) { return &snapNo{}, nil },
	})
	RegisterFamily("snapMissing", FamilyInfo{ // want "var _ SnapshotTallier"
		Build: func(s ProtocolSpec) (Protocol, error) { return &snapMissing{}, nil },
	})
}
