package longitudinal

import (
	"fmt"

	"github.com/loloha-ldp/loloha/internal/freqoracle"
)

// Tally-direct ingestion. A WireTallier decodes a steady-state payload in
// place (views over the payload bytes, no intermediate report structs) and
// bumps the aggregator's support counts directly, so wire ingestion
// performs zero allocations per report. It is the only way a report
// reaches an aggregator.

// WireTallier tallies one steady-state round payload directly into an
// aggregator. Steady-state payloads are fixed-size for a given protocol
// configuration, so the same tallier serves single reports and the packed
// payload column of a columnar batch. Its counts, report count and the
// aggregator's estimates are checked, for every registered family, against
// internal/reference, a server written independently from the paper.
type WireTallier interface {
	// PayloadStride returns the exact steady-state payload size in bytes.
	PayloadStride() int
	// CheckRegistration validates a user's enrollment metadata against the
	// protocol (for dBitFlipPM: exactly d sampled buckets, each in
	// [0, b)). The collection service calls it at enrollment, so a hostile
	// registration is rejected before any report can tally against it.
	CheckRegistration(reg Registration) error
	// TallyWire decodes payload in place and adds the report it carries to
	// agg's current-round tallies for the identified user. agg must come
	// from the same protocol that supplied the tallier (its
	// NewAggregator); reg is the user's enrollment metadata. A non-nil error
	// means nothing was tallied.
	TallyWire(agg Aggregator, userID int, payload []byte, reg Registration) error
}

// TallyProtocol is a Protocol whose steady-state payloads can be tallied
// in place. Every protocol in this repository implements it, and the
// collection service accepts no other.
type TallyProtocol interface {
	Protocol
	// WireTallier returns the tallier for this protocol's steady-state
	// payloads.
	WireTallier() WireTallier
}

// ---------------------------------------------------------------------------
// Chained-UE tallier.

// WireTallier implements TallyProtocol.
func (c *ChainUE) WireTallier() WireTallier { return ueWireTallier{k: c.k} }

type ueWireTallier struct{ k int }

// PayloadStride implements WireTallier.
//
//loloha:noalloc
func (t ueWireTallier) PayloadStride() int { return freqoracle.UEPayloadBytes(t.k) }

// CheckRegistration implements WireTallier: UE chains need no enrollment
// metadata, so any registration is accepted (and ignored).
//
//loloha:noalloc
func (ueWireTallier) CheckRegistration(Registration) error { return nil }

// TallyWire implements WireTallier: each set payload bit bumps one support
// count straight from the payload bytes.
//
//loloha:noalloc
func (t ueWireTallier) TallyWire(agg Aggregator, _ int, payload []byte, _ Registration) error {
	a, ok := agg.(*chainUEAggregator)
	if !ok || a.proto.k != t.k {
		return fmt.Errorf("longitudinal: chained-UE tallier cannot tally into %T", agg)
	}
	if err := freqoracle.CheckUEPayload(payload, t.k); err != nil {
		return err
	}
	freqoracle.AccumulateUEPayload(payload, t.k, a.round.Counts)
	a.round.N++
	return nil
}

// ---------------------------------------------------------------------------
// L-GRR tallier.

// WireTallier implements TallyProtocol.
func (m *LGRR) WireTallier() WireTallier { return grrWireTallier{k: m.k} }

type grrWireTallier struct{ k int }

// PayloadStride implements WireTallier.
//
//loloha:noalloc
func (t grrWireTallier) PayloadStride() int { return freqoracle.GRRPayloadBytes(t.k) }

// CheckRegistration implements WireTallier: L-GRR needs no enrollment
// metadata, so any registration is accepted (and ignored).
//
//loloha:noalloc
func (grrWireTallier) CheckRegistration(Registration) error { return nil }

// TallyWire implements WireTallier: parse the scalar value and bump its
// count.
//
//loloha:noalloc
func (t grrWireTallier) TallyWire(agg Aggregator, _ int, payload []byte, _ Registration) error {
	a, ok := agg.(*lgrrAggregator)
	if !ok || a.proto.k != t.k {
		return fmt.Errorf("longitudinal: L-GRR tallier cannot tally into %T", agg)
	}
	x, err := freqoracle.ParseGRRPayload(payload, t.k)
	if err != nil {
		return err
	}
	a.round.Counts[x]++
	a.round.N++
	return nil
}

// ---------------------------------------------------------------------------
// dBitFlipPM tallier.

// WireTallier implements TallyProtocol.
func (m *DBitFlipPM) WireTallier() WireTallier { return dbitWireTallier{proto: m} }

type dbitWireTallier struct{ proto *DBitFlipPM }

// PayloadStride implements WireTallier.
//
//loloha:noalloc
func (t dbitWireTallier) PayloadStride() int { return (t.proto.d + 7) / 8 }

// CheckRegistration implements WireTallier: a dBitFlipPM user enrolls
// exactly d sampled buckets, each a valid bucket index. Anything else
// would index past the aggregator's b counts.
//
//loloha:noalloc
func (t dbitWireTallier) CheckRegistration(reg Registration) error {
	if len(reg.Sampled) != t.proto.d {
		return fmt.Errorf("longitudinal: dBitFlipPM registration has %d sampled buckets, want %d",
			len(reg.Sampled), t.proto.d)
	}
	for _, j := range reg.Sampled {
		if j < 0 || j >= t.proto.b {
			return fmt.Errorf("longitudinal: dBitFlipPM sampled bucket %d outside [0, %d)", j, t.proto.b)
		}
	}
	return nil
}

// TallyWire implements WireTallier: each set payload bit bumps the count
// of the user's enrolled sampled bucket at that slot, straight from the
// payload bytes. The registration is re-checked per report, so a tallier
// driven outside the collection service cannot index past the counts.
//
//loloha:noalloc
func (t dbitWireTallier) TallyWire(agg Aggregator, _ int, payload []byte, reg Registration) error {
	a, ok := agg.(*dBitAggregator)
	if !ok || a.proto != t.proto {
		return fmt.Errorf("longitudinal: dBitFlipPM tallier cannot tally into %T", agg)
	}
	if err := t.CheckRegistration(reg); err != nil {
		return err
	}
	if n := t.PayloadStride(); len(payload) != n {
		return fmt.Errorf("longitudinal: dBit payload is %d bytes, want %d", len(payload), n)
	}
	for l, j := range reg.Sampled {
		if payload[l/8]>>(uint(l)%8)&1 == 1 {
			a.round.Counts[j]++
		}
	}
	a.round.N++
	return nil
}
