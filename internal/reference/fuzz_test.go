package reference_test

import (
	"slices"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/hashfamily"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/reference"
)

// Differential fuzz targets, one per payload layout: the same payloads and
// registration go to the engine's WireTallier and to the reference. Both
// must accept or reject each payload alike, and after every payload the
// counts and report counts must be equal; at the end the estimates must
// be bit-identical. Each input is fed whole and then cut into stride-sized
// chunks, so both malformed and well-formed payloads reach the talliers.
// `go test` runs the seed corpus; `go test -fuzz` explores.

// differential runs payload, then each stride-sized chunk of it, through
// proto's engine and reference, user i registered with reg(i).
func differential(t *testing.T, proto longitudinal.Protocol, payload []byte, reg func(i int) longitudinal.Registration) {
	t.Helper()
	ref, err := reference.New(proto)
	if err != nil {
		t.Fatal(err)
	}
	tallier := proto.(longitudinal.TallyProtocol).WireTallier()
	agg := proto.NewAggregator()
	stride := tallier.PayloadStride()
	inputs := [][]byte{payload}
	for lo := 0; lo+stride <= len(payload); lo += stride {
		inputs = append(inputs, payload[lo:lo+stride])
	}
	for i, in := range inputs {
		errEngine := tallier.TallyWire(agg, i, in, reg(i))
		errRef := ref.Add(in, reg(i))
		if (errEngine == nil) != (errRef == nil) {
			t.Fatalf("%s payload %d (%x): engine err %v, reference err %v", proto.Name(), i, in, errEngine, errRef)
		}
		round := agg.Tally()
		if round.N != ref.N() || !slices.Equal(round.Counts, ref.Counts()) {
			t.Fatalf("%s payload %d: engine n=%d counts %v, reference n=%d counts %v",
				proto.Name(), i, round.N, round.Counts, ref.N(), ref.Counts())
		}
	}
	got := agg.EndRound()
	if _, _, want := ref.EndRound(); !identical(got, want) {
		t.Fatalf("%s: engine estimates %v, reference %v", proto.Name(), got, want)
	}
}

// FuzzDifferentialUE covers the k-bit unary-encoding payload of the four
// chained-UE families.
func FuzzDifferentialUE(f *testing.F) {
	f.Add(uint8(0), uint16(8), []byte{0x00})
	f.Add(uint8(1), uint16(9), []byte{0xFF, 0x01, 0x80, 0x00})
	f.Add(uint8(2), uint16(64), []byte{})
	f.Add(uint8(3), uint16(13), []byte{0x55, 0x15, 0x55, 0x35})
	builders := []func(k int, epsInf, eps1 float64) (*longitudinal.ChainUE, error){
		longitudinal.NewRAPPOR, longitudinal.NewLOSUE, longitudinal.NewLOUE, longitudinal.NewLSOUE,
	}
	f.Fuzz(func(t *testing.T, which uint8, kRaw uint16, payload []byte) {
		proto, err := builders[int(which)%len(builders)](2+int(kRaw)%500, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		differential(t, proto, payload, func(int) longitudinal.Registration { return longitudinal.Registration{} })
	})
}

// FuzzDifferentialGRRValue covers the scalar value payload: L-GRR over
// [0..k) and LOLOHA's hash cell over [0..g), under both hash families,
// with user i registered under hash seed seed+i.
func FuzzDifferentialGRRValue(f *testing.F) {
	f.Add(false, uint32(10), uint16(0), uint64(1), []byte{0x03})
	f.Add(false, uint32(70000), uint16(0), uint64(1), []byte{0xFF, 0xFF, 0x00, 0x10, 0x11, 0x01})
	f.Add(true, uint32(360), uint16(2), uint64(7), []byte{0x00, 0x01, 0x02, 0x01})
	f.Add(true, uint32(1000), uint16(300), uint64(9), []byte{0x2B, 0x01, 0xFF, 0x00})
	f.Fuzz(func(t *testing.T, loloha bool, kRaw uint32, gRaw uint16, seed uint64, payload []byte) {
		var proto longitudinal.Protocol
		var err error
		if loloha {
			k, g := 2+int(kRaw%2000), 2+int(gRaw%1000)
			opts := []core.Option{}
			if seed%2 == 1 {
				opts = append(opts, core.WithFamily(hashfamily.NewCarterWegmanFamily(g)))
			}
			proto, err = core.New(k, g, 2, 1, opts...)
		} else {
			proto, err = longitudinal.NewLGRR(2+int(kRaw%100000), 2, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		differential(t, proto, payload, func(i int) longitudinal.Registration {
			return longitudinal.Registration{HashSeed: seed + uint64(i)}
		})
	})
}

// FuzzDifferentialDBit covers the d-bit dBitFlipPM payload with arbitrary
// sampled-bucket registrations: the wrong count, buckets past b and
// negative buckets must be rejected by both sides.
func FuzzDifferentialDBit(f *testing.F) {
	f.Add(uint8(24), uint8(8), uint8(3), []byte{0x05}, []byte{1, 4, 7})
	f.Add(uint8(24), uint8(8), uint8(3), []byte{0x07}, []byte{1, 8, 7})
	f.Add(uint8(60), uint8(30), uint8(12), []byte{0xAA, 0x0F, 0x55, 0xF3}, []byte{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 29})
	f.Add(uint8(10), uint8(5), uint8(2), []byte{0x03, 0x01, 0x02}, []byte{0xFF, 3})
	f.Fuzz(func(t *testing.T, kRaw, bRaw, dRaw uint8, payload, sampled []byte) {
		k := 2 + int(kRaw)%100
		b := 2 + int(bRaw)%(k-1)
		d := 1 + int(dRaw)%b
		proto, err := longitudinal.NewDBitFlipPM(k, b, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		reg := longitudinal.Registration{Sampled: make([]int, len(sampled))}
		for i, c := range sampled {
			reg.Sampled[i] = int(int8(c))
		}
		differential(t, proto, payload, func(int) longitudinal.Registration { return reg })
	})
}

func identical(a, b []float64) bool {
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
