// Benchmarks for the client-side report-generation path — the half of the
// pipeline BENCH_ingest.json does not cover. Two row kinds per protocol
// family and domain size:
//
//   - append: AppendReport writes wire bytes straight into a reused
//     buffer; sparse families skip-sample, zero allocations.
//   - ingest: a full generate→ingest round trip per op through a Stream on
//     the tally-direct path, the end-to-end client+server cost.
//
// Clients cycle through a small working set of values, matching the
// evolving-data setting (users change values rarely), so memoized state is
// warm and the measurement is the steady-state per-report cost. The
// L-OSUE-e4 rows pin the high-ε regime where flips are rarest and
// skip-sampling pays most. BENCH_report.json records the checked-in
// baseline.
//
//	go test -run xxx -bench 'ReportPath' -benchmem .
package loloha_test

import (
	"fmt"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
)

// reportBenchValues is the per-client working-set size: each client reports
// values u, u+1, ... u+reportBenchValues-1 (mod k) round-robin.
const reportBenchValues = 8

func reportBenchProtocols(b *testing.B, k int) []struct {
	name  string
	proto loloha.Protocol
} {
	b.Helper()
	mk := func(p loloha.Protocol, err error) loloha.Protocol {
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	d := 8
	if bkt := k / 4; d > bkt {
		d = bkt
	}
	return []struct {
		name  string
		proto loloha.Protocol
	}{
		{"L-OSUE", mk(loloha.NewLOSUE(k, 2, 1))},
		{"L-OSUE-e4", mk(loloha.NewLOSUE(k, 4, 2))},
		{"RAPPOR", mk(loloha.NewRAPPOR(k, 2, 1))},
		{"L-GRR", mk(loloha.NewLGRR(k, 2, 1))},
		{"BiLOLOHA", mk(loloha.NewBiLOLOHA(k, 2, 1))},
		{"dBitFlipPM", mk(loloha.NewDBitFlipPM(k, k/4, d, 2))},
	}
}

func BenchmarkReportPath(b *testing.B) {
	for _, k := range []int{64, 256, 1024} {
		for _, tc := range reportBenchProtocols(b, k) {
			b.Run(fmt.Sprintf("%s/k=%d/append", tc.name, k), func(b *testing.B) {
				cl := tc.proto.NewClient(1)
				buf := make([]byte, 0, (k+7)/8+16)
				for v := 0; v < reportBenchValues; v++ {
					buf = cl.AppendReport(buf[:0], v%k)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = cl.AppendReport(buf[:0], i%reportBenchValues)
				}
				benchSink = buf
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}
	}
}

// BenchmarkReportIngestPath measures the full generate→ingest round trip:
// AppendReport into a reused buffer, wire Ingest on the tally-direct path,
// CloseRound once per cohort sweep. One op is one report end to end.
func BenchmarkReportIngestPath(b *testing.B) {
	const n = 4096
	for _, k := range []int{64, 1024} {
		for _, tc := range reportBenchProtocols(b, k) {
			b.Run(fmt.Sprintf("%s/k=%d/ingest", tc.name, k), func(b *testing.B) {
				stream, err := loloha.NewStream(tc.proto)
				if err != nil {
					b.Fatal(err)
				}
				clients := make([]loloha.Client, n)
				for u := range clients {
					clients[u] = tc.proto.NewClient(uint64(u) + 1)
					if err := stream.Enroll(u, clients[u].WireRegistration()); err != nil {
						b.Fatal(err)
					}
				}
				buf := make([]byte, 0, (k+7)/8+16)
				// Warm round: memoized client state and server-side
				// first-sight registration work.
				for u, cl := range clients {
					buf = cl.AppendReport(buf[:0], u%k)
					if err := stream.Ingest(u, buf); err != nil {
						b.Fatal(err)
					}
				}
				stream.CloseRound()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					u := i % n
					buf = clients[u].AppendReport(buf[:0], u%k)
					if err := stream.Ingest(u, buf); err != nil {
						b.Fatal(err)
					}
					if u == n-1 {
						benchSink = stream.CloseRound()
					}
				}
				b.StopTimer()
				stream.CloseRound() // flush the partial round
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}
	}
}
