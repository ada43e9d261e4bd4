package longitudinal

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// sparseParityKs is the acceptance grid of the sparse refactor: small,
// medium and large domains.
var sparseParityKs = []int{16, 64, 1024}

// forceSamplerPath rebuilds a protocol twice with the IRR/memo sampler
// pinned to each path. Both protocols are otherwise identical, so any
// output divergence is a dense/sparse parity break.
func chainUEPair(t *testing.T, mk func() (*ChainUE, error)) (dense, sparse *ChainUE) {
	t.Helper()
	d, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	d.sampler.Sparse = false
	s.sampler.Sparse = true
	return d, s
}

func dbitPair(t *testing.T, k, b, d int, epsInf float64) (dense, sparse *DBitFlipPM) {
	t.Helper()
	mk := func() *DBitFlipPM {
		p, err := NewDBitFlipPM(k, b, d, epsInf)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dn, sp := mk(), mk()
	dn.sampler.Sparse = false
	sp.sampler.Sparse = true
	return dn, sp
}

// valueSequence drives a client through a deterministic evolving-value
// sequence: mostly stable with occasional jumps, the paper's setting.
func valueSequence(seed uint64, k, rounds int) []int {
	r := randsrc.NewSeeded(seed)
	out := make([]int, rounds)
	v := r.Intn(k)
	for t := range out {
		if r.Float64() < 0.15 {
			v = r.Intn(k)
		}
		out[t] = v
	}
	return out
}

// TestChainUESparseDenseParity: for every chained-UE calibration and
// domain size, a dense-pinned and a sparse-pinned protocol with identical
// seeds must emit bit-identical reports and identical estimates.
func TestChainUESparseDenseParity(t *testing.T) {
	chains := map[string]func(k int) (*ChainUE, error){
		"RAPPOR": func(k int) (*ChainUE, error) { return NewRAPPOR(k, 2, 1) },
		"L-OSUE": func(k int) (*ChainUE, error) { return NewLOSUE(k, 2, 1) },
		"L-OUE":  func(k int) (*ChainUE, error) { return NewLOUE(k, 2, 0.4) },
		"L-SOUE": func(k int) (*ChainUE, error) { return NewLSOUE(k, 2, 0.4) },
	}
	const users, rounds = 16, 6
	for name, mk := range chains {
		for _, k := range sparseParityKs {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				dense, sparse := chainUEPair(t, func() (*ChainUE, error) { return mk(k) })
				aggD, aggS := dense.NewAggregator(), sparse.NewAggregator()
				for u := 0; u < users; u++ {
					seed := randsrc.Derive(77, uint64(u))
					clD := dense.NewClient(seed).(*chainUEClient)
					clS := sparse.NewClient(seed).(*chainUEClient)
					var bufD, bufS []byte
					for _, v := range valueSequence(uint64(u), k, rounds) {
						bufD = clD.AppendReport(bufD[:0], v)
						bufS = clS.AppendReport(bufS[:0], v)
						if !bytes.Equal(bufD, bufS) {
							t.Fatalf("user %d value %d: dense %x != sparse %x", u, v, bufD, bufS)
						}
						tallyPayload(t, dense, aggD, u, bufD, Registration{})
						tallyPayload(t, sparse, aggS, u, bufS, Registration{})
					}
				}
				if !equalFloats(aggD.EndRound(), aggS.EndRound()) {
					t.Fatal("dense and sparse estimates diverged")
				}
			})
		}
	}
}

// TestDBitSparseDenseParity: dense- and sparse-pinned dBitFlipPM must
// memoize identical responses (reports AND estimates), for d spanning the
// 1-bit, partial and full-bucket cases.
func TestDBitSparseDenseParity(t *testing.T) {
	for _, k := range sparseParityKs {
		b := k / 4
		for _, d := range []int{1, b / 2, b} {
			if d < 1 {
				continue
			}
			t.Run(fmt.Sprintf("k=%d/d=%d", k, d), func(t *testing.T) {
				dense, sparse := dbitPair(t, k, b, d, 2)
				aggD, aggS := dense.NewAggregator(), sparse.NewAggregator()
				for u := 0; u < 32; u++ {
					seed := randsrc.Derive(99, uint64(u))
					clD := dense.NewClient(seed).(*dBitClient)
					clS := sparse.NewClient(seed).(*dBitClient)
					var bufD, bufS []byte
					for _, v := range valueSequence(uint64(u)+1, k, 5) {
						bufD = clD.AppendReport(bufD[:0], v)
						bufS = clS.AppendReport(bufS[:0], v)
						if !bytes.Equal(bufD, bufS) {
							t.Fatalf("user %d value %d: dense %x != sparse %x", u, v, bufD, bufS)
						}
						tallyPayload(t, dense, aggD, u, bufD, clD.WireRegistration())
						tallyPayload(t, sparse, aggS, u, bufS, clS.WireRegistration())
					}
				}
				if !equalFloats(aggD.EndRound(), aggS.EndRound()) {
					t.Fatal("dense and sparse estimates diverged")
				}
			})
		}
	}
}

func equalFloats(a, b []float64) bool {
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
