// Package reference is an independent server for every registered
// protocol family, written straight from the paper's definitions. Tests
// check the engine against it: counts, report counts and estimates must
// agree exactly. Only _test.go files import it.
//
// A Server decodes each steady-state payload from its documented wire
// layout and counts support the way the paper defines it:
//
//   - LOLOHA (Algorithm 2): re-hash every candidate v ∈ [0..k) with the
//     user's registered hash and count v when H_u(v) equals the reported
//     cell.
//   - Chained UE (RAPPOR, L-OSUE, L-OUE, L-SOUE): count every set bit.
//   - L-GRR: count the reported value.
//   - dBitFlipPM: count every set bit into the user's registered sampled
//     bucket at that slot.
//
// Estimates invert both sanitization rounds with Eq. (3) (q′₁ = 1/g for
// LOLOHA) or apply the dBitFlipPM estimator, written in the engine's
// operation order so that equal counts give bit-identical floats.
//
// The package reads a protocol's public parameters and its hash family
// and nothing else: none of the engine's tally code (freqoracle payload
// readers, bitset, the LOLOHA match masks, ChainParams.EstimateAllL).
// A protocol type it does not know is an error, so a newly registered
// family fails the parity gates until it has a reference here.
package reference

import (
	"fmt"
	"math"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/hashfamily"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// Server is one protocol's reference aggregator for one round at a time.
type Server struct {
	fam    family
	counts []int64
	n      int
	hits   []int // scratch: the estimate cells one report supports
}

// family is one protocol family's decode-and-count rule and estimator.
type family interface {
	// support decodes payload against the user's registration and
	// appends the estimate cells it supports to dst. A non-nil error
	// means the payload or registration is malformed.
	support(dst []int, payload []byte, reg longitudinal.Registration) ([]int, error)
	// estimate turns a round's counts over n reports into frequencies.
	estimate(counts []int64, n int) []float64
	// cells is the estimate-domain length.
	cells() int
}

// New returns a reference server for proto, or an error if the package
// has no reference for the protocol's type.
func New(proto longitudinal.Protocol) (*Server, error) {
	var fam family
	switch p := proto.(type) {
	case *core.Protocol:
		c := p.Params()
		fam = lolohaFamily{k: p.K(), g: p.G(), hashes: p.Family(),
			chain: chain{p1: c.P1, q1: 1 / float64(p.G()), p2: c.P2, q2: c.Q2}}
	case *longitudinal.ChainUE:
		fam = ueFamily{k: p.K(), chain: chainOf(p.Params())}
	case *longitudinal.LGRR:
		fam = grrFamily{k: p.K(), chain: chainOf(p.Params())}
	case *longitudinal.DBitFlipPM:
		e := math.Exp(p.Spec().EpsInf / 2)
		prob := e / (e + 1)
		fam = dbitFamily{b: p.B(), d: p.D(), p: prob, q: 1 - prob}
	default:
		return nil, fmt.Errorf("reference: no reference server for %T (%s)", proto, proto.Name())
	}
	return &Server{fam: fam, counts: make([]int64, fam.cells())}, nil
}

// Add decodes one user's round payload and counts it. On error nothing is
// counted.
func (s *Server) Add(payload []byte, reg longitudinal.Registration) error {
	hits, err := s.fam.support(s.hits[:0], payload, reg)
	s.hits = hits
	if err != nil {
		return err
	}
	for _, c := range hits {
		s.counts[c]++
	}
	s.n++
	return nil
}

// Counts returns the open round's support counts. The slice aliases the
// server until the next EndRound.
func (s *Server) Counts() []int64 { return s.counts }

// N returns the number of reports counted in the open round.
func (s *Server) N() int { return s.n }

// EndRound returns the open round's counts, report count and estimates,
// and opens a fresh round.
func (s *Server) EndRound() (counts []int64, n int, est []float64) {
	counts, n = s.counts, s.n
	est = s.fam.estimate(counts, n)
	s.counts, s.n = make([]int64, len(counts)), 0
	return counts, n, est
}

// Spec returns a feasible spec over domain size k for a built-in family,
// for tests that iterate the registry: g = 3, b = 8, d = 3, ε∞ = 2 and
// ε1 = 1 where the family takes them. An unknown family is an error, so
// such a test fails until the family gets a spec here and a server above.
func Spec(name string, k int) (longitudinal.ProtocolSpec, error) {
	s := longitudinal.ProtocolSpec{Family: name, K: k, EpsInf: 2, Eps1: 1}
	switch name {
	case "LOLOHA":
		s.G = 3
	case "dBitFlipPM":
		s.B, s.D, s.Eps1 = 8, 3, 0
	case "1BitFlipPM", "bBitFlipPM":
		s.B, s.Eps1 = 8, 0
	case "RAPPOR", "L-OSUE", "L-OUE", "L-SOUE", "L-GRR", "BiLOLOHA", "OLOLOHA":
	default:
		return s, fmt.Errorf("reference: no spec for family %q", name)
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Wire layouts.

// valueWidth is the byte width of a value over [0..m): the fewest whole
// bytes that hold m−1.
func valueWidth(m int) int {
	w := 1
	for w < 8 && uint64(m-1)>>(8*w) != 0 {
		w++
	}
	return w
}

// decodeValue reads a scalar payload over [0..m): exactly valueWidth(m)
// bytes, little-endian, holding a value below m.
func decodeValue(payload []byte, m int) (int, error) {
	w := valueWidth(m)
	if len(payload) != w {
		return 0, fmt.Errorf("reference: value payload is %d bytes, want %d", len(payload), w)
	}
	var x uint64
	for i, c := range payload {
		x |= uint64(c) << (8 * i)
	}
	if x >= uint64(m) {
		return 0, fmt.Errorf("reference: value %d outside [0..%d)", x, m)
	}
	return int(x), nil
}

// bit reports bit i of a little-endian bit-packed payload: bit i%8 of
// byte i/8.
func bit(payload []byte, i int) bool { return payload[i/8]>>(i%8)&1 == 1 }

// ---------------------------------------------------------------------------
// Estimators.

// chain holds the two-round probabilities of Eq. (3).
type chain struct{ p1, q1, p2, q2 float64 }

func chainOf(c longitudinal.ChainParams) chain {
	return chain{p1: c.P1, q1: c.Q1, p2: c.P2, q2: c.Q2}
}

// estimate is Eq. (3):
//
//	f̂(v) = (C(v) − n(q1(p2−q2) + q2)) / (n(p1−q1)(p2−q2)),
//
// and zero everywhere for a round without reports.
func (c chain) estimate(counts []int64, n int) []float64 {
	est := make([]float64, len(counts))
	if n == 0 {
		return est
	}
	nf := float64(n)
	for v, cnt := range counts {
		est[v] = (float64(cnt) - nf*(c.q1*(c.p2-c.q2)+c.q2)) / (nf * (c.p1 - c.q1) * (c.p2 - c.q2))
	}
	return est
}

// ---------------------------------------------------------------------------
// Families.

// lolohaFamily is Algorithm 2. The payload is the sanitized hash cell, a
// value over [0..g); the registration's hash seed names H_u.
type lolohaFamily struct {
	k, g   int
	hashes hashfamily.Family
	chain
}

func (f lolohaFamily) cells() int { return f.k }

func (f lolohaFamily) support(dst []int, payload []byte, reg longitudinal.Registration) ([]int, error) {
	x, err := decodeValue(payload, f.g)
	if err != nil {
		return dst, err
	}
	h := f.hashes.FromSeed(reg.HashSeed)
	for v := 0; v < f.k; v++ {
		if h.Index(v) == x {
			dst = append(dst, v)
		}
	}
	return dst, nil
}

// ueFamily is a chained unary encoding. The payload is the k sanitized
// bits packed little-endian into ⌈k/8⌉ bytes; the padding bits past k
// must be zero.
type ueFamily struct {
	k int
	chain
}

func (f ueFamily) cells() int { return f.k }

func (f ueFamily) support(dst []int, payload []byte, _ longitudinal.Registration) ([]int, error) {
	if want := (f.k + 7) / 8; len(payload) != want {
		return dst, fmt.Errorf("reference: UE payload is %d bytes, want %d", len(payload), want)
	}
	for i := f.k; i < 8*len(payload); i++ {
		if bit(payload, i) {
			return dst, fmt.Errorf("reference: UE padding bit %d set", i)
		}
	}
	for v := 0; v < f.k; v++ {
		if bit(payload, v) {
			dst = append(dst, v)
		}
	}
	return dst, nil
}

// grrFamily is L-GRR. The payload is the sanitized value over [0..k).
type grrFamily struct {
	k int
	chain
}

func (f grrFamily) cells() int { return f.k }

func (f grrFamily) support(dst []int, payload []byte, _ longitudinal.Registration) ([]int, error) {
	x, err := decodeValue(payload, f.k)
	if err != nil {
		return dst, err
	}
	return append(dst, x), nil
}

// dbitFamily is dBitFlipPM. The registration lists the user's d sampled
// buckets, each in [0..b); the payload packs the d memoized bits
// little-endian into ⌈d/8⌉ bytes, bit l answering for sampled bucket l.
// Padding bits past d carry nothing and are ignored.
type dbitFamily struct {
	b, d int
	p, q float64
}

func (f dbitFamily) cells() int { return f.b }

func (f dbitFamily) support(dst []int, payload []byte, reg longitudinal.Registration) ([]int, error) {
	if len(reg.Sampled) != f.d {
		return dst, fmt.Errorf("reference: %d sampled buckets, want %d", len(reg.Sampled), f.d)
	}
	for _, j := range reg.Sampled {
		if j < 0 || j >= f.b {
			return dst, fmt.Errorf("reference: sampled bucket %d outside [0..%d)", j, f.b)
		}
	}
	if want := (f.d + 7) / 8; len(payload) != want {
		return dst, fmt.Errorf("reference: dBit payload is %d bytes, want %d", len(payload), want)
	}
	for l, j := range reg.Sampled {
		if bit(payload, l) {
			dst = append(dst, j)
		}
	}
	return dst, nil
}

// estimate is the dBitFlipPM estimator: each bucket is sampled by about
// n_eff = n·d/b users, so f̂(j) = (C(j) − n_eff·q) / (n_eff·(p − q)), and
// zero everywhere for a round without reports.
func (f dbitFamily) estimate(counts []int64, n int) []float64 {
	est := make([]float64, len(counts))
	if n == 0 {
		return est
	}
	nEff := float64(n) * float64(f.d) / float64(f.b)
	den := nEff * (f.p - f.q)
	for j, c := range counts {
		est[j] = (float64(c) - nEff*f.q) / den
	}
	return est
}
