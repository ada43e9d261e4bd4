package server

import (
	"errors"
	"strings"
	"testing"

	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

var _ = core.New // import for the LOLOHA-family registry entries

// columnarSpec returns a feasible spec for every registered family, so the
// parity matrix automatically covers families added later (the test fails
// loudly on a family it cannot parameterize).
func columnarSpec(t *testing.T, family string, k int) longitudinal.ProtocolSpec {
	t.Helper()
	switch family {
	case "dBitFlipPM":
		return longitudinal.ProtocolSpec{Family: family, K: k, B: 8, D: 3, EpsInf: 2}
	case "1BitFlipPM", "bBitFlipPM":
		return longitudinal.ProtocolSpec{Family: family, K: k, B: 8, EpsInf: 2}
	case "LOLOHA":
		return longitudinal.ProtocolSpec{Family: family, K: k, G: 2, EpsInf: 2, Eps1: 1}
	case "RAPPOR", "L-OSUE", "L-OUE", "L-SOUE", "L-GRR", "BiLOLOHA", "OLOLOHA":
		return longitudinal.ProtocolSpec{Family: family, K: k, EpsInf: 2, Eps1: 1}
	default:
		t.Fatalf("no columnar parity spec for registered family %q — add one", family)
		return longitudinal.ProtocolSpec{}
	}
}

// TestIngestColumnarParity pins the tentpole contract: for every
// registered family and shard count, a columnar batch (enrolling through
// its registration columns in round 0) tallies bit-identically to Enroll
// + per-report IngestBatch.
func TestIngestColumnarParity(t *testing.T) {
	const k, n, rounds = 24, 160, 3
	for _, family := range longitudinal.Families() {
		spec := columnarSpec(t, family, k)
		for _, shards := range []int{1, 4} {
			t.Run(family+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				proto, err := spec.Build()
				if err != nil {
					t.Fatalf("Build(%+v): %v", spec, err)
				}
				stride, ok := longitudinal.ColumnarStrideOf(proto)
				if !ok {
					t.Fatalf("%s: protocol has no columnar stride", family)
				}
				specHash := longitudinal.SpecHashOf(proto)

				ref, err := NewStream(proto, WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				colS, err := NewStream(proto, WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}

				clients := make([]longitudinal.Client, n)
				regs := make([]longitudinal.Registration, n)
				for u := range clients {
					clients[u] = proto.NewClient(randsrc.Derive(11, uint64(u)))
					regs[u] = clients[u].WireRegistration()
					if err := ref.Enroll(u, regs[u]); err != nil {
						t.Fatalf("enroll %d: %v", u, err)
					}
				}
				d := len(regs[0].Sampled)

				ids := make([]int, n)
				payloads := make([][]byte, n)
				var batch longitudinal.ColumnarBatch
				for round := 0; round < rounds; round++ {
					w, err := longitudinal.NewColumnarWriter(specHash, stride)
					if err != nil {
						t.Fatal(err)
					}
					// Round 0 enrolls through the batch's registration
					// columns; later rounds ride the steady-state form.
					if round == 0 {
						if err := w.WithRegistrations(d); err != nil {
							t.Fatal(err)
						}
					}
					for u := range clients {
						ids[u] = u
						payloads[u] = clients[u].AppendReport(payloads[u][:0], (u*7+round)%k)
						if round == 0 {
							err = w.AddWithRegistration(u, payloads[u], regs[u])
						} else {
							err = w.Add(u, payloads[u])
						}
						if err != nil {
							t.Fatalf("round %d add %d: %v", round, u, err)
						}
					}
					if err := ref.IngestBatch(ids, payloads); err != nil {
						t.Fatalf("round %d IngestBatch: %v", round, err)
					}
					if err := longitudinal.DecodeColumnar(w.AppendTo(nil), &batch); err != nil {
						t.Fatalf("round %d decode: %v", round, err)
					}
					if err := colS.IngestColumnar(&batch); err != nil {
						t.Fatalf("round %d IngestColumnar: %v", round, err)
					}

					want, got := ref.CloseRound(), colS.CloseRound()
					if got.Reports != want.Reports {
						t.Fatalf("round %d: %d reports, want %d", round, got.Reports, want.Reports)
					}
					for v := range want.Raw {
						if got.Raw[v] != want.Raw[v] || got.Estimates[v] != want.Estimates[v] {
							t.Fatalf("round %d: estimate %d = %v/%v, want %v/%v",
								round, v, got.Raw[v], got.Estimates[v], want.Raw[v], want.Estimates[v])
						}
					}
				}
			})
		}
	}
}

// TestIngestColumnarRejections pins the batch- and report-level rejection
// semantics of the columnar path.
func TestIngestColumnarRejections(t *testing.T) {
	proto, err := core.NewBinary(32, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stride, _ := longitudinal.ColumnarStrideOf(proto)
	specHash := longitudinal.SpecHashOf(proto)
	cell := make([]byte, stride)

	newStream := func() *Stream {
		s, err := NewStream(proto, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	encode := func(w *longitudinal.ColumnarWriter) *longitudinal.ColumnarBatch {
		var b longitudinal.ColumnarBatch
		if err := longitudinal.DecodeColumnar(w.AppendTo(nil), &b); err != nil {
			t.Fatal(err)
		}
		return &b
	}

	t.Run("spec hash mismatch rejects the whole batch", func(t *testing.T) {
		s := newStream()
		w, _ := longitudinal.NewColumnarWriter(specHash+1, stride)
		if err := w.Add(1, cell); err != nil {
			t.Fatal(err)
		}
		err := s.IngestColumnar(encode(w))
		if !errors.Is(err, ErrColumnarMismatch) {
			t.Fatalf("err = %v, want ErrColumnarMismatch", err)
		}
		if s.Pending() != 0 {
			t.Fatalf("%d reports tallied from a mismatched batch", s.Pending())
		}
	})

	t.Run("stride mismatch rejects the whole batch", func(t *testing.T) {
		s := newStream()
		w, _ := longitudinal.NewColumnarWriter(specHash, stride+1)
		if err := w.Add(1, make([]byte, stride+1)); err != nil {
			t.Fatal(err)
		}
		if err := s.IngestColumnar(encode(w)); !errors.Is(err, ErrColumnarMismatch) {
			t.Fatalf("err = %v, want ErrColumnarMismatch", err)
		}
	})

	t.Run("duplicate row rejected, first tallied", func(t *testing.T) {
		s := newStream()
		cl := proto.NewClient(3)
		if err := s.Enroll(8, cl.WireRegistration()); err != nil {
			t.Fatal(err)
		}
		w, _ := longitudinal.NewColumnarWriter(specHash, stride)
		p := cl.AppendReport(nil, 0)
		if err := w.Add(8, p); err != nil {
			t.Fatal(err)
		}
		if err := w.Add(8, p); err != nil {
			t.Fatal(err)
		}
		err := s.IngestColumnar(encode(w))
		if err == nil || !strings.Contains(err.Error(), "already reported") {
			t.Fatalf("err = %v, want a duplicate-report rejection", err)
		}
		if s.Pending() != 1 {
			t.Fatalf("Pending() = %d, want 1", s.Pending())
		}
	})

	t.Run("not enrolled without registration columns", func(t *testing.T) {
		s := newStream()
		w, _ := longitudinal.NewColumnarWriter(specHash, stride)
		if err := w.Add(4, cell); err != nil {
			t.Fatal(err)
		}
		err := s.IngestColumnar(encode(w))
		if err == nil || !strings.Contains(err.Error(), "not enrolled") {
			t.Fatalf("err = %v, want a not-enrolled rejection", err)
		}
	})

	t.Run("conflicting registration reported, report still tallies", func(t *testing.T) {
		s := newStream()
		cl := proto.NewClient(3)
		reg := cl.WireRegistration()
		if err := s.Enroll(8, reg); err != nil {
			t.Fatal(err)
		}
		w, _ := longitudinal.NewColumnarWriter(specHash, stride)
		if err := w.WithRegistrations(0); err != nil {
			t.Fatal(err)
		}
		conflicting := longitudinal.Registration{HashSeed: reg.HashSeed + 1}
		if err := w.AddWithRegistration(8, cl.AppendReport(nil, 0), conflicting); err != nil {
			t.Fatal(err)
		}
		err := s.IngestColumnar(encode(w))
		if err == nil || !strings.Contains(err.Error(), "already enrolled") {
			t.Fatalf("err = %v, want a conflicting-enrollment rejection", err)
		}
		if s.Pending() != 1 {
			t.Fatalf("Pending() = %d, want 1 (report tallies under the original registration)", s.Pending())
		}
	})
}
