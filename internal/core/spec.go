package core

import (
	"fmt"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// Declarative construction for the LOLOHA families. Importing this package
// (directly or through the public loloha facade) registers all three, so a
// serialized longitudinal.ProtocolSpec reaches Algorithm 1/2 without any
// positional constructor call.

// Spec implements longitudinal.SpecProtocol. The generic "LOLOHA" family
// carries its explicit g; BiLOLOHA (g = 2) and OLOLOHA (g from Eq. (6))
// derive g from the family, so their specs omit it and re-derive it on
// Build. Non-default construction options (custom hash family, exact IRR
// calibration) are not part of the declarative description.
func (p *Protocol) Spec() longitudinal.ProtocolSpec {
	s := longitudinal.ProtocolSpec{Family: p.name, K: p.k, EpsInf: p.epsInf, Eps1: p.eps1}
	if p.name == "LOLOHA" {
		s.G = p.g
	}
	return s
}

func init() {
	budgeted := []longitudinal.Field{longitudinal.FieldK, longitudinal.FieldEpsInf, longitudinal.FieldEps1}

	longitudinal.RegisterFamily("LOLOHA", longitudinal.FamilyInfo{
		Doc: "LOLOHA with explicit reduced domain g: longitudinal budget g·ε∞ (Algorithms 1–2)",
		Required: []longitudinal.Field{longitudinal.FieldK, longitudinal.FieldG,
			longitudinal.FieldEpsInf, longitudinal.FieldEps1},
		Build: func(s longitudinal.ProtocolSpec) (longitudinal.Protocol, error) {
			return New(s.K, s.G, s.EpsInf, s.Eps1)
		},
	})
	longitudinal.RegisterFamily("BiLOLOHA", longitudinal.FamilyInfo{
		Doc:      "BiLOLOHA (g = 2): strongest longitudinal protection, worst case 2·ε∞",
		Required: budgeted,
		Optional: []longitudinal.Field{longitudinal.FieldG},
		Build: func(s longitudinal.ProtocolSpec) (longitudinal.Protocol, error) {
			if s.G != 0 && s.G != 2 {
				return nil, fmt.Errorf("core: family BiLOLOHA fixes g = 2, got g=%d (use family LOLOHA for explicit g)", s.G)
			}
			return NewBinary(s.K, s.EpsInf, s.Eps1)
		},
	})
	longitudinal.RegisterFamily("OLOLOHA", longitudinal.FamilyInfo{
		Doc:      "OLOLOHA: g minimizes the approximate variance (Eq. (6)); best utility",
		Required: budgeted,
		Build: func(s longitudinal.ProtocolSpec) (longitudinal.Protocol, error) {
			return NewOptimal(s.K, s.EpsInf, s.Eps1)
		},
	})
}
