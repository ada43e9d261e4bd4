package server

import (
	"fmt"
	"io"
	"testing"

	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// BenchmarkMergeTree measures the moving parts of durability and the
// collector tree, per BENCH_merge.json:
//
//   - snapshot-encode/decode: one full-state LSS1 image (tallies +
//     registration tables for `users` enrolled users) written to /
//     decoded from memory — the per-snapshot cost a daemon pays on its
//     -snapshot-every timer and at restore.
//   - leaf-export: one CloseRoundExport plus encoding the tally-only
//     merge payload as an LME1 envelope — the leaf's per-round overhead
//     beyond a plain CloseRound.
//   - merge-round: the root's cost of one collection round fed by K
//     leaves: decode K merge envelopes, MergeEnvelope each, close the
//     round.
//
// Families mirror BENCH_network.json: BiLOLOHA (widest tally vector of
// the k-domain families) and dBitFlipPM (bucketed, b counts).
func BenchmarkMergeTree(b *testing.B) {
	for _, fam := range []struct {
		name string
		spec longitudinal.ProtocolSpec
	}{
		{"BiLOLOHA", longitudinal.ProtocolSpec{Family: "BiLOLOHA", K: 64, EpsInf: 2, Eps1: 1}},
		{"dBitFlipPM", longitudinal.ProtocolSpec{Family: "dBitFlipPM", K: 64, B: 16, D: 4, EpsInf: 2}},
	} {
		proto, err := fam.spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		for _, users := range []int{1024, 16384} {
			b.Run(fmt.Sprintf("%s/snapshot-encode/users=%d", fam.name, users), func(b *testing.B) {
				s := newBenchStream(b, proto, users)
				var size int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cw := &countingWriter{}
					if err := s.Snapshot(cw); err != nil {
						b.Fatal(err)
					}
					size = cw.n
				}
				b.SetBytes(size)
			})
			b.Run(fmt.Sprintf("%s/snapshot-decode/users=%d", fam.name, users), func(b *testing.B) {
				s := newBenchStream(b, proto, users)
				enc, err := persist.Append(nil, s.exportState())
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(enc)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := persist.Decode(enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		b.Run(fam.name+"/leaf-export", func(b *testing.B) {
			leaf := newBenchStream(b, proto, 256)
			_, seed, err := leaf.CloseRoundExport()
			if err != nil {
				b.Fatal(err)
			}
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Re-arm the round with the seed tallies so every export
				// carries a realistic count vector.
				rearm := &persist.Envelope{Leaf: "seed", Seq: uint64(i) + 1, Snap: seed}
				if _, _, err := leaf.MergeEnvelope(rearm); err != nil {
					b.Fatal(err)
				}
				res, snap, err := leaf.CloseRoundExport()
				if err != nil {
					b.Fatal(err)
				}
				env := &persist.Envelope{Leaf: "leaf", Round: res.Round, Seq: uint64(i) + 1, Snap: snap}
				if buf, err = persist.AppendEnvelope(buf[:0], env); err != nil {
					b.Fatal(err)
				}
			}
		})

		for _, leaves := range []int{2, 4} {
			b.Run(fmt.Sprintf("%s/merge-round/leaves=%d", fam.name, leaves), func(b *testing.B) {
				frames := make([][]byte, leaves)
				reports := 0
				for i := range frames {
					leaf := newBenchStream(b, proto, 256)
					res, snap, err := leaf.CloseRoundExport()
					if err != nil {
						b.Fatal(err)
					}
					reports += res.Reports
					env := &persist.Envelope{Leaf: fmt.Sprintf("leaf%d", i), Round: res.Round, Seq: 1, Snap: snap}
					if frames[i], err = persist.AppendEnvelope(nil, env); err != nil {
						b.Fatal(err)
					}
				}
				root, err := NewStream(proto)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%4096 == 0 && i > 0 {
						// Bound the published-history growth; stream setup is
						// noise next to 4096 merge rounds.
						if root, err = NewStream(proto); err != nil {
							b.Fatal(err)
						}
					}
					got := 0
					for _, frame := range frames {
						env, err := persist.DecodeEnvelope(frame)
						if err != nil {
							b.Fatal(err)
						}
						// Each iteration replays the same envelopes; a fresh
						// sequence number keeps the ledger applying them.
						env.Seq = uint64(i) + 1
						n, dup, err := root.MergeEnvelope(env)
						if err != nil || dup {
							b.Fatalf("merge: dup=%v err=%v", dup, err)
						}
						got += n
					}
					if res := root.CloseRound(); res.Reports != got || got != reports {
						b.Fatalf("round merged %d reports, want %d", res.Reports, reports)
					}
				}
				b.ReportMetric(float64(reports), "reports/round")
			})
		}
	}
}

// newBenchStream returns a stream with `users` enrolled users that have
// all reported into the open round.
func newBenchStream(b *testing.B, proto longitudinal.Protocol, users int) *Stream {
	b.Helper()
	s, err := NewStream(proto)
	if err != nil {
		b.Fatal(err)
	}
	var payload []byte
	for u := 0; u < users; u++ {
		cl := proto.NewClient(randsrc.Derive(7, uint64(u)))
		if err := s.Enroll(u, cl.WireRegistration()); err != nil {
			b.Fatal(err)
		}
		payload = cl.AppendReport(payload[:0], u%proto.K())
		if err := s.Ingest(u, payload); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

var _ io.Writer = (*countingWriter)(nil)
