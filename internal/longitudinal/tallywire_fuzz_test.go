package longitudinal_test

import (
	"slices"
	"testing"

	_ "github.com/loloha-ldp/loloha/internal/core" // registers the LOLOHA families
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/reference"
)

// FuzzTallyWire feeds arbitrary payload and registration bytes to every
// built-in family's WireTallier — the input validation every wire report
// and enrollment reaches, whatever its transport. The tallier must never
// panic; a rejection must leave the aggregator's tallies exactly as they
// were; an acceptance must add exactly one report, and only for a
// registration CheckRegistration accepts and a payload of the declared
// stride.
func FuzzTallyWire(f *testing.F) {
	families := longitudinal.Families()
	protos := make([]longitudinal.Protocol, len(families))
	for i, fam := range families {
		spec, err := reference.Spec(fam, 24)
		if err != nil {
			f.Fatal(err)
		}
		p, err := spec.Build()
		if err != nil {
			f.Fatalf("%s: %v", fam, err)
		}
		protos[i] = p
	}

	// Seeds per family: an honest payload and registration, then the
	// payload truncated and extended, and hostile registrations (a bucket
	// past b, too few buckets, a negative bucket).
	for i, p := range protos {
		cl := p.NewClient(randsrc.Derive(5, uint64(i)))
		payload := cl.AppendReport(nil, 3)
		reg := cl.WireRegistration()
		honest, err := longitudinal.AppendRegistration(nil, reg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), payload, honest)
		f.Add(uint8(i), payload[:len(payload)-1], honest)
		f.Add(uint8(i), append(slices.Clone(payload), 0xAA), honest)
		for _, sampled := range [][]int{{1 << 20}, {0}, {-1, 0, 1}} {
			hostile, err := longitudinal.AppendRegistration(nil, longitudinal.Registration{Sampled: sampled})
			if err == nil {
				f.Add(uint8(i), payload, hostile)
			}
		}
	}

	f.Fuzz(func(t *testing.T, family uint8, payload, regBytes []byte) {
		proto := protos[int(family)%len(protos)]
		reg, rest, err := longitudinal.DecodeRegistration(regBytes)
		if err != nil || len(rest) != 0 {
			return // not a registration; DecodeRegistration has its own fuzz target
		}
		tallier := proto.(longitudinal.TallyProtocol).WireTallier()
		agg := proto.NewAggregator()

		// One honest report first, so "unchanged" is checked against a
		// non-empty tally.
		cl := proto.NewClient(7)
		if err := tallier.TallyWire(agg, 0, cl.AppendReport(nil, 1), cl.WireRegistration()); err != nil {
			t.Fatalf("honest report rejected: %v", err)
		}
		round := agg.Tally()
		before, n0 := slices.Clone(round.Counts), round.N

		err = tallier.TallyWire(agg, 1, payload, reg)
		round = agg.Tally()
		after, n1 := round.Counts, round.N
		if err != nil {
			if n1 != n0 || !slices.Equal(after, before) {
				t.Fatalf("%s: rejected report changed the tally (n %d→%d): %v", proto.Name(), n0, n1, err)
			}
			return
		}
		if n1 != n0+1 {
			t.Fatalf("%s: accepted report moved n %d→%d, want +1", proto.Name(), n0, n1)
		}
		if len(payload) != tallier.PayloadStride() {
			t.Fatalf("%s: accepted a %d-byte payload, stride is %d", proto.Name(), len(payload), tallier.PayloadStride())
		}
		if err := tallier.CheckRegistration(reg); err != nil {
			t.Fatalf("%s: tallied against a registration CheckRegistration rejects: %v", proto.Name(), err)
		}
	})
}
