// Tests for the allocation-free report-generation path: every client
// family's AppendReport allocates nothing per report in steady state — the
// headline guarantee mirroring the ingestion side's
// TestIngestSteadyStateZeroAllocs, pinned with testing.AllocsPerRun — and
// a cohort's Collect matches the same clients fed to the independent
// reference server.
package loloha_test

import (
	"testing"

	loloha "github.com/loloha-ldp/loloha"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// cohortSeed mirrors how WithCohort seeds client u from the stream seed.
func cohortSeed(seed, u uint64) uint64 { return randsrc.Derive(seed, u) }

// reportProtocols builds one protocol per family at a domain size where
// the chained-UE sparse path is active.
func reportProtocols(t testing.TB, k int) map[string]loloha.Protocol {
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
	p2, err2 := loloha.NewLOSUE(k, 2, 1)
	add("chained-UE", p2, err2)
	p3, err3 := loloha.NewLGRR(k, 2, 1)
	add("L-GRR", p3, err3)
	p4, err4 := loloha.NewDBitFlipPM(k, k/4, 6, 2)
	add("dBitFlipPM", p4, err4)
	return protos
}

// TestAppendReportSteadyStateZeroAllocs pins the acceptance criterion:
// once a client's memoized caches are warm for its working set and the
// caller's buffer has capacity, AppendReport performs zero allocations per
// report for every family.
func TestAppendReportSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	const k, working, runs = 256, 8, 200
	for name, proto := range reportProtocols(t, k) {
		t.Run(name, func(t *testing.T) {
			cl := proto.NewClient(3)
			buf := make([]byte, 0, (k+7)/8)
			// Warm-up: materialize the memoized state for the working set
			// (first-sight cost, not steady state).
			for v := 0; v < working; v++ {
				buf = cl.AppendReport(buf[:0], v)
			}
			v := 0
			avg := testing.AllocsPerRun(runs, func() {
				buf = cl.AppendReport(buf[:0], v%working)
				v++
			})
			if avg != 0 {
				t.Errorf("steady-state AppendReport allocates %.2f times per report, want 0", avg)
			}
		})
	}
}

// TestStreamCollectUsesWireFastPath: a cohort Stream and hand-driven
// clients fed to the independent reference server must agree bit for bit.
func TestStreamCollectUsesWireFastPath(t *testing.T) {
	const k, n, rounds = 32, 200, 3
	for name, proto := range reportProtocols(t, k) {
		t.Run(name, func(t *testing.T) {
			stream, err := loloha.NewStream(proto, loloha.WithCohort(n, 5), loloha.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			clients := make([]loloha.Client, n)
			for u := range clients {
				clients[u] = proto.NewClient(cohortSeed(5, uint64(u)))
			}
			ref := newReference(t, proto)
			values := make([]int, n)
			for round := 0; round < rounds; round++ {
				for u := range values {
					values[u] = (u + round*7) % k
				}
				res, err := stream.Collect(values)
				if err != nil {
					t.Fatal(err)
				}
				for u, cl := range clients {
					addToReference(t, ref, cl.AppendReport(nil, values[u]), cl.WireRegistration())
				}
				checkEstimates(t, name, res, endRound(ref))
			}
		})
	}
}
