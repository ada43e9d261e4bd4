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

type FamilyInfo struct {
	Build func(ProtocolSpec) (Protocol, error)
}

func RegisterFamily(name string, info FamilyInfo) {}

type goodTallier struct{}

func (goodTallier) TallyWire(payload []byte) error { return nil }
func (goodTallier) PayloadStride() int             { return 1 }

// good is the fully asserted family.
type good struct{}

func (*good) K() int                   { return 2 }
func (*good) Spec() ProtocolSpec       { return ProtocolSpec{Name: "good"} }
func (*good) WireTallier() WireTallier { return goodTallier{} }

var (
	_ SpecProtocol  = (*good)(nil)
	_ TallyProtocol = (*good)(nil)
)

// missing implements the wire path but forgot its assertions.
type missing struct{}

func (*missing) K() int                   { return 2 }
func (*missing) Spec() ProtocolSpec       { return ProtocolSpec{Name: "missing"} }
func (*missing) WireTallier() WireTallier { return goodTallier{} }

// untalliedProto has no tallier: a Stream cannot ingest it.
type untalliedProto struct{}

func (*untalliedProto) K() int             { return 2 }
func (*untalliedProto) Spec() ProtocolSpec { return ProtocolSpec{Name: "untallied"} }

var _ SpecProtocol = (*untalliedProto)(nil)

func init() {
	RegisterFamily("good", FamilyInfo{ // ok: implemented and asserted
		Build: func(s ProtocolSpec) (Protocol, error) { return &good{}, nil },
	})
	RegisterFamily("missing", FamilyInfo{ // want "var _ SpecProtocol" "var _ TallyProtocol"
		Build: func(s ProtocolSpec) (Protocol, error) { return &missing{}, nil },
	})
	RegisterFamily("untallied", FamilyInfo{ // want "does not implement TallyProtocol"
		Build: func(s ProtocolSpec) (Protocol, error) { return &untalliedProto{}, nil },
	})
}
