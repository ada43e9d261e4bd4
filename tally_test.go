// Tests for tally-direct ingestion: the WireTallier path must match the
// independent reference server (internal/reference) for every registered
// family and shard count, and the steady-state wire hot path must not
// allocate — testing.AllocsPerRun pins Ingest at 0 allocs/report and
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

// TestTallyDirectMatchesDecoderPath: for every registered family × shard
// count, a stream fed the wire payloads matches the independent reference
// server fed the same payloads — counts and n exactly, estimates bit for
// bit — through both per-report and batch ingestion.
func TestTallyDirectMatchesDecoderPath(t *testing.T) {
	const n, rounds = 400, 3
	for _, fp := range familyProtocols(t) {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", fp.name, shards), func(t *testing.T) {
				proto, k := fp.proto, fp.proto.K()
				stream, err := loloha.NewStream(proto, loloha.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				ref := newReference(t, proto)
				clients := make([]loloha.Client, n)
				for u := range clients {
					clients[u] = proto.NewClient(uint64(u)*0x9E3779B9 + 1)
					if err := stream.Enroll(u, clients[u].WireRegistration()); err != nil {
						t.Fatal(err)
					}
				}
				for round := 0; round < rounds; round++ {
					userIDs := make([]int, n)
					payloads := make([][]byte, n)
					for u, cl := range clients {
						userIDs[u] = u
						payloads[u] = cl.AppendReport(nil, (u+round*7)%k)
						addToReference(t, ref, payloads[u], cl.WireRegistration())
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
					closeAndCheck(t, fp.name, stream, endRound(ref))
				}
			})
		}
	}
}

// TestTallyDirectRejectsWhatDecoderRejects: for every registered family,
// malformed payloads — empty, truncated, trailing bytes — are rejected by
// the stream and by the reference alike, a rejected payload tallies
// nothing, and the user's honest report still lands afterwards, matching
// the reference of that one report.
func TestTallyDirectRejectsWhatDecoderRejects(t *testing.T) {
	for _, fp := range familyProtocols(t) {
		t.Run(fp.name, func(t *testing.T) {
			proto := fp.proto
			stream, err := loloha.NewStream(proto, loloha.WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			cl := proto.NewClient(7)
			reg := cl.WireRegistration()
			if err := stream.Enroll(0, reg); err != nil {
				t.Fatal(err)
			}
			ref := newReference(t, proto)
			good := cl.AppendReport(nil, 3)
			for label, payload := range map[string][]byte{
				"empty":     {},
				"truncated": good[:len(good)-1],
				"trailing":  append(append([]byte{}, good...), 0xAA),
			} {
				if err := stream.Ingest(0, payload); err == nil {
					t.Fatalf("%s payload accepted", label)
				}
				if err := ref.Add(payload, reg); err == nil {
					t.Fatalf("%s payload accepted by the reference", label)
				}
			}
			if err := stream.Ingest(0, good); err != nil {
				t.Fatalf("honest payload after rejections: %v", err)
			}
			addToReference(t, ref, good, reg)
			closeAndCheck(t, fp.name, stream, endRound(ref))
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
				if err := stream.Enroll(u, cl.WireRegistration()); err != nil {
					t.Fatal(err)
				}
				payloads[u] = cl.AppendReport(nil, u%k)
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
				if err := s.Enroll(u, cl.WireRegistration()); err != nil {
					t.Fatal(err)
				}
				ids[b][i] = u
				payloads[b][i] = cl.AppendReport(nil, u%k)
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
