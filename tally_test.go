// Tests for tally-direct ingestion: the WireTallier path must be
// bit-identical to the boxed Client.Report + Aggregator.Add reference for
// every protocol family and shard count, and the steady-state wire hot
// path must not allocate — testing.AllocsPerRun pins Ingest at 0 allocs/report and
// IngestBatch at 0 allocs/batch so regressions fail loudly instead of
// showing up as GC pressure under production load.
package loloha_test

import (
	"fmt"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
)

// tallyProtocols builds one protocol per family.
func tallyProtocols(t testing.TB, k int) map[string]loloha.Protocol {
	t.Helper()
	protos := map[string]loloha.Protocol{}
	add := func(name string, p loloha.Protocol, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		protos[name] = p
	}
	p1, err1 := loloha.NewBiLOLOHA(k, 2, 1)
	add("LOLOHA", p1, err1)
	p2, err2 := loloha.NewRAPPOR(k, 2, 1)
	add("chained-UE", p2, err2)
	p3, err3 := loloha.NewLGRR(k, 2, 1)
	add("L-GRR", p3, err3)
	p4, err4 := loloha.NewDBitFlipPM(k, 8, 3, 2)
	add("dBitFlipPM", p4, err4)
	return protos
}

// TestTallyDirectMatchesDecoderPath is the acceptance gate of tally-direct
// ingestion: for every protocol family × shard count, a stream fed the
// wire payloads produces estimates bit-identical to the boxed reference —
// the same clients' Report values added one by one to a plain aggregator —
// through both per-report and batch ingestion.
func TestTallyDirectMatchesDecoderPath(t *testing.T) {
	const k, n, rounds = 24, 400, 3
	for name, proto := range tallyProtocols(t, k) {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				stream, err := loloha.NewStream(proto, loloha.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				ref := proto.NewAggregator()
				clients := make([]loloha.Client, n)
				for u := range clients {
					clients[u] = proto.NewClient(uint64(u)*0x9E3779B9 + 1)
					if err := stream.Enroll(u, registrationFor(t, clients[u])); err != nil {
						t.Fatal(err)
					}
				}
				for round := 0; round < rounds; round++ {
					userIDs := make([]int, n)
					payloads := make([][]byte, n)
					for u, cl := range clients {
						rep := cl.Report((u + round*7) % k)
						ref.Add(u, rep)
						userIDs[u] = u
						payloads[u] = rep.AppendBinary(nil)
					}
					// Odd rounds batch, even rounds go report by report, so
					// both entry points are exercised.
					if round%2 == 1 {
						if err := stream.IngestBatch(userIDs, payloads); err != nil {
							t.Fatal(err)
						}
					} else {
						for u := range userIDs {
							if err := stream.Ingest(u, payloads[u]); err != nil {
								t.Fatal(err)
							}
						}
					}
					got, want := stream.CloseRound(), ref.EndRound()
					if got.Reports != n {
						t.Fatalf("round %d: reports %d, want %d", round, got.Reports, n)
					}
					if !equalFloats(got.Raw, want) {
						t.Fatalf("round %d: tally-direct estimates diverged from the boxed reference", round)
					}
				}
			})
		}
	}
}

// TestTallyDirectRejectsWhatDecoderRejects: malformed payloads — empty,
// truncated, trailing bytes — are rejected, a rejected payload tallies
// nothing, and the user's honest report still lands afterwards with
// estimates bit-identical to the boxed reference of that one report.
func TestTallyDirectRejectsWhatDecoderRejects(t *testing.T) {
	const k = 24
	for name, proto := range tallyProtocols(t, k) {
		t.Run(name, func(t *testing.T) {
			stream, err := loloha.NewStream(proto, loloha.WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			cl := proto.NewClient(7)
			if err := stream.Enroll(0, registrationFor(t, cl)); err != nil {
				t.Fatal(err)
			}
			rep := cl.Report(3)
			good := rep.AppendBinary(nil)
			for label, payload := range map[string][]byte{
				"empty":     {},
				"truncated": good[:len(good)-1],
				"trailing":  append(append([]byte{}, good...), 0xAA),
			} {
				if err := stream.Ingest(0, payload); err == nil {
					t.Fatalf("%s payload accepted", label)
				}
			}
			if err := stream.Ingest(0, good); err != nil {
				t.Fatalf("honest payload after rejections: %v", err)
			}
			ref := proto.NewAggregator()
			ref.Add(0, rep)
			got := stream.CloseRound()
			if got.Reports != 1 || !equalFloats(got.Raw, ref.EndRound()) {
				t.Fatalf("rejected payloads leaked into the tally: %d reports", got.Reports)
			}
		})
	}
}

// TestIngestSteadyStateZeroAllocs pins the headline guarantee of the
// tally-direct refactor: after enrollment and a warm-up round, wire Ingest
// of every built-in protocol performs zero allocations per report.
func TestIngestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	const k, n, runs = 24, 256, 100
	for name, proto := range tallyProtocols(t, k) {
		t.Run(name, func(t *testing.T) {
			stream, err := loloha.NewStream(proto, loloha.WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			payloads := make([][]byte, n)
			for u := 0; u < n; u++ {
				cl := proto.NewClient(uint64(u) + 3)
				if err := stream.Enroll(u, registrationFor(t, cl)); err != nil {
					t.Fatal(err)
				}
				payloads[u] = cl.Report(u % k).AppendBinary(nil)
			}
			// Warm-up round: first-sight work (the LOLOHA per-user hash
			// table) is enrollment-time cost, not steady state.
			for u := 0; u < n; u++ {
				if err := stream.Ingest(u, payloads[u]); err != nil {
					t.Fatal(err)
				}
			}
			stream.CloseRound()
			u := 0
			avg := testing.AllocsPerRun(runs, func() {
				if err := stream.Ingest(u, payloads[u]); err != nil {
					t.Fatal(err)
				}
				u++
			})
			if avg != 0 {
				t.Errorf("steady-state Ingest allocates %.2f times per report, want 0", avg)
			}
		})
	}
}

// TestIngestBatchScratchReuse: steady-state batches reuse pooled working
// memory — zero allocations per batch.
func TestIngestBatchScratchReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	const k, batchSize, runs = 24, 64, 20
	proto := tallyProtocols(t, k)["LOLOHA"]
	mkBatches := func(s *loloha.Stream) ([][]int, [][][]byte) {
		t.Helper()
		nBatches := runs + 2
		ids := make([][]int, nBatches)
		payloads := make([][][]byte, nBatches)
		u := 0
		for b := range ids {
			ids[b] = make([]int, batchSize)
			payloads[b] = make([][]byte, batchSize)
			for i := 0; i < batchSize; i++ {
				cl := proto.NewClient(uint64(u)*31 + 5)
				if err := s.Enroll(u, registrationFor(t, cl)); err != nil {
					t.Fatal(err)
				}
				ids[b][i] = u
				payloads[b][i] = cl.Report(u % k).AppendBinary(nil)
				u++
			}
		}
		return ids, payloads
	}

	t.Run("tally", func(t *testing.T) {
		stream, err := loloha.NewStream(proto, loloha.WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		ids, payloads := mkBatches(stream)
		// Warm-up: populate the scratch pool and the per-user hash tables.
		for b := range ids {
			if err := stream.IngestBatch(ids[b], payloads[b]); err != nil {
				t.Fatal(err)
			}
		}
		stream.CloseRound()
		b := 0
		avg := testing.AllocsPerRun(runs, func() {
			if err := stream.IngestBatch(ids[b], payloads[b]); err != nil {
				t.Fatal(err)
			}
			b++
		})
		if avg != 0 {
			t.Errorf("steady-state IngestBatch allocates %.2f times per batch, want 0", avg)
		}
	})
}
