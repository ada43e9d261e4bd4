package core

import (
	"fmt"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// WireTallier implements longitudinal.TallyProtocol: LOLOHA payloads tally
// directly into the aggregator's support counts with zero steady-state
// allocations (the per-user hash table is built once, on the user's first
// report).
func (p *Protocol) WireTallier() longitudinal.WireTallier { return wireTallier{proto: p} }

type wireTallier struct{ proto *Protocol }

// PayloadStride implements longitudinal.WireTallier.
//
//loloha:noalloc
func (t wireTallier) PayloadStride() int { return freqoracle.GRRPayloadBytes(t.proto.g) }

// CheckRegistration implements longitudinal.WireTallier: every 64-bit
// hash seed names a valid hash function, so any registration is accepted.
//
//loloha:noalloc
func (wireTallier) CheckRegistration(longitudinal.Registration) error { return nil }

// TallyWire implements longitudinal.WireTallier: parse the sanitized hash
// cell and run the Algorithm 2 support loop against the user's registered
// hash.
//
//loloha:noalloc
func (t wireTallier) TallyWire(agg longitudinal.Aggregator, userID int, payload []byte, reg longitudinal.Registration) error {
	a, ok := agg.(*Aggregator)
	if !ok || a.proto != t.proto {
		return fmt.Errorf("core: LOLOHA tallier cannot tally into %T", agg)
	}
	x, err := freqoracle.ParseGRRPayload(payload, t.proto.g)
	if err != nil {
		return err
	}
	a.add(userID, reg.HashSeed, x)
	return nil
}
