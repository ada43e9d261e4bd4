// Tests for the Stream collection service: parity across every ingestion
// path and shard count, the options surface, round subscriptions and
// batch ingest.
package loloha_test

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
	"github.com/loloha-ldp/loloha/internal/reference"
)

// familyProto is one registered family's protocol under test.
type familyProto struct {
	name  string
	proto loloha.Protocol
}

// familyProtocols builds every registered family from its specCases
// entry, failing when a family has none — so a newly registered family
// joins every registry-driven gate, and fails it until
// internal/reference knows it.
func familyProtocols(t testing.TB) []familyProto {
	t.Helper()
	specs := map[string]loloha.ProtocolSpec{}
	for _, c := range specCases() {
		specs[c.name] = c.spec
	}
	var out []familyProto
	for _, family := range loloha.Families() {
		spec, ok := specs[family]
		if !ok {
			t.Fatalf("no spec for registered family %q — add one to specCases", family)
		}
		proto, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		out = append(out, familyProto{family, proto})
	}
	return out
}

// newReference returns the independent reference server for proto.
func newReference(t testing.TB, proto loloha.Protocol) *reference.Server {
	t.Helper()
	ref, err := reference.New(proto)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// refRound is one closed round of the reference server.
type refRound struct {
	counts []int64
	n      int
	est    []float64
}

// endRound closes the reference's round.
func endRound(ref *reference.Server) refRound {
	counts, n, est := ref.EndRound()
	return refRound{counts, n, est}
}

// addToReference counts one client payload in the reference, failing the
// test if the reference rejects it.
func addToReference(t testing.TB, ref *reference.Server, payload []byte, reg loloha.Registration) {
	t.Helper()
	if err := ref.Add(payload, reg); err != nil {
		t.Fatalf("reference rejected a client payload: %v", err)
	}
}

// closeAndCheck closes the stream's round and checks it against the
// reference's: the merged counts and report count exactly, and the raw
// and (without post-processing) published estimates bit for bit.
func closeAndCheck(t testing.TB, label string, s *loloha.Stream, want refRound) {
	t.Helper()
	res, snap, err := s.CloseRoundExport()
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Shards[0].Tally
	if got.N != want.n || res.Reports != want.n || !slices.Equal(got.Counts, want.counts) {
		t.Fatalf("%s round %d: n=%d reports=%d counts %v, reference n=%d counts %v",
			label, res.Round, got.N, res.Reports, got.Counts, want.n, want.counts)
	}
	checkEstimates(t, label, res, want)
}

// checkEstimates checks a published round's estimates bit for bit
// against the reference's. Counts differing by one move an estimate by
// 1/(n·(p1−q1)(p2−q2)), far more than a rounding step, so equal estimates
// also pin equal counts on paths that close the round themselves
// (Collect).
func checkEstimates(t testing.TB, label string, res loloha.RoundResult, want refRound) {
	t.Helper()
	if res.Reports != want.n {
		t.Fatalf("%s round %d: %d reports, reference %d", label, res.Round, res.Reports, want.n)
	}
	if !equalFloats(res.Raw, want.est) {
		t.Fatalf("%s round %d: estimates %v, reference %v", label, res.Round, res.Raw, want.est)
	}
	if !equalFloats(res.Estimates, want.est) {
		t.Fatalf("%s round %d: post-processed estimates differ without WithPostProcess", label, res.Round)
	}
}

// TestStreamParityAllPathsAllFamilies is the acceptance gate of the one
// client/aggregator contract: for every registered family, every shard
// count in {1, 8} and every ingestion path — per-report, batch,
// columnar and the in-process cohort — the stream's counts, report count
// and estimates equal the independent reference server's, fed the same
// clients' payloads.
func TestStreamParityAllPathsAllFamilies(t *testing.T) {
	const n, rounds, seed = 600, 3, 7
	for _, fp := range familyProtocols(t) {
		t.Run(fp.name, func(t *testing.T) {
			proto, k := fp.proto, fp.proto.K()
			ref := newReference(t, proto)
			type pathStream struct {
				path, label string
				s           *loloha.Stream
			}
			var streams []pathStream
			for _, shards := range []int{1, 8} {
				for _, path := range []string{"report", "batch", "columnar", "cohort"} {
					opts := []loloha.StreamOption{loloha.WithShards(shards)}
					if path == "cohort" {
						opts = append(opts, loloha.WithCohort(n, seed))
					}
					s, err := loloha.NewStream(proto, opts...)
					if err != nil {
						t.Fatal(err)
					}
					streams = append(streams, pathStream{path, fmt.Sprintf("shards=%d/%s", shards, path), s})
				}
			}
			stride, ok := loloha.ColumnarStrideOf(proto)
			if !ok {
				t.Fatal("no columnar stride")
			}
			w, err := loloha.NewColumnarWriter(loloha.SpecHashOf(proto), stride)
			if err != nil {
				t.Fatal(err)
			}
			var col loloha.ColumnarBatch

			// The cohort's clients, seeded as WithCohort seeds them, so
			// every path carries the same payloads.
			clients := make([]loloha.Client, n)
			for u := range clients {
				clients[u] = proto.NewClient(cohortSeed(seed, uint64(u)))
				for _, ps := range streams {
					if ps.path == "cohort" {
						continue
					}
					if err := ps.s.Enroll(u, clients[u].WireRegistration()); err != nil {
						t.Fatal(err)
					}
				}
			}
			for round := 0; round < rounds; round++ {
				values := make([]int, n)
				userIDs := make([]int, n)
				payloads := make([][]byte, n)
				w.Reset()
				for u, cl := range clients {
					values[u] = (u + round*5) % k
					userIDs[u] = u
					payloads[u] = cl.AppendReport(nil, values[u])
					addToReference(t, ref, payloads[u], cl.WireRegistration())
					if err := w.Add(u, payloads[u]); err != nil {
						t.Fatal(err)
					}
				}
				if err := loloha.DecodeColumnar(w.AppendTo(nil), &col); err != nil {
					t.Fatal(err)
				}
				want := endRound(ref)
				for _, ps := range streams {
					s, label := ps.s, ps.label
					switch ps.path {
					case "batch":
						if err := s.IngestBatch(userIDs, payloads); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					case "columnar":
						if err := s.IngestColumnar(&col); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					case "cohort":
						res, err := s.Collect(values)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						checkEstimates(t, label, res, want)
						continue
					default:
						for u := range userIDs {
							if err := s.Ingest(u, payloads[u]); err != nil {
								t.Fatalf("%s: %v", label, err)
							}
						}
					}
					closeAndCheck(t, label, s, want)
				}
			}
		})
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

// TestStreamCohortMatchesLegacyCohort: for every registered family and
// shard counts 1, 3 and 8, a Stream built with WithCohort matches the
// same deterministically seeded clients driven one by one into the
// independent reference server — in estimates, report count and every
// user's privacy ledger.
func TestStreamCohortMatchesLegacyCohort(t *testing.T) {
	const n, rounds, seed = 300, 3, 9
	for _, fp := range familyProtocols(t) {
		for _, shards := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", fp.name, shards), func(t *testing.T) {
				proto := fp.proto
				stream, err := loloha.NewStream(proto, loloha.WithCohort(n, seed), loloha.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				if stream.CohortSize() != n || stream.CohortShards() != shards {
					t.Fatalf("cohort of %d users in %d blocks, want %d in %d",
						stream.CohortSize(), stream.CohortShards(), n, shards)
				}
				legacy := make([]loloha.Client, n)
				for u := range legacy {
					legacy[u] = proto.NewClient(cohortSeed(seed, uint64(u)))
				}
				ref := newReference(t, proto)
				values := make([]int, n)
				var buf []byte
				for round := 0; round < rounds; round++ {
					for u := range values {
						values[u] = (u*3 + round*11) % proto.K()
					}
					for u, cl := range legacy {
						buf = cl.AppendReport(buf[:0], values[u])
						addToReference(t, ref, buf, cl.WireRegistration())
					}
					res, err := stream.Collect(values)
					if err != nil {
						t.Fatal(err)
					}
					checkEstimates(t, "cohort", res, endRound(ref))
				}
				spent := stream.PrivacySpent()
				for u, cl := range legacy {
					if spent[u] != cl.PrivacySpent() {
						t.Fatalf("user %d: stream ledger %v, reference %v", u, spent[u], cl.PrivacySpent())
					}
				}
			})
		}
	}
}

// TestCollectRejectsBadValuesUntouched: Collect checks every value
// before any client reports. A rejected call — a value outside [0, K) or
// a values slice of the wrong length — returns an error and leaves the
// open round, the shard tallies and every client's clock and ledger
// untouched, so the next Collect is bit-identical to a fresh stream's
// first.
func TestCollectRejectsBadValuesUntouched(t *testing.T) {
	const k, n, seed = 8, 4, 3
	proto, err := loloha.NewLGRR(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	newCohort := func() *loloha.Stream {
		s, err := loloha.NewStream(proto, loloha.WithCohort(n, seed), loloha.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	stream := newCohort()
	pending, spent := stream.Pending(), stream.PrivacySpent()
	for _, bad := range [][]int{{0, 1, 2, 99}, {0, -1, 2, 3}, {0, 1, 2}} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Collect(%v) panicked: %v", bad, r)
				}
			}()
			if _, err := stream.Collect(bad); err == nil {
				t.Fatalf("Collect(%v) accepted", bad)
			}
		}()
	}
	if stream.Pending() != pending || !equalFloats(stream.PrivacySpent(), spent) || stream.Rounds() != 0 {
		t.Fatalf("rejected Collect changed the stream: pending %d→%d, rounds %d, ledgers %v→%v",
			pending, stream.Pending(), stream.Rounds(), spent, stream.PrivacySpent())
	}
	good := []int{0, 1, 2, 3}
	got, err := stream.Collect(good)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newCohort().Collect(good)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != want.Round || got.Reports != want.Reports || !equalFloats(got.Raw, want.Raw) {
		t.Fatalf("round after a rejected Collect: %+v, want a fresh stream's %+v", got, want)
	}
}

// TestCollectConcurrentWithWireIngest: Collect tallies its cohort blocks
// on the shards' aggregators without the shard locks, relying on the
// exclusive round barrier. Wire enrollment, ingestion, Pending and
// Snapshot running from other goroutines meanwhile must neither race
// (run with -race) nor lose a report: every cohort report and every
// accepted wire report lands in exactly one published round.
func TestCollectConcurrentWithWireIngest(t *testing.T) {
	const k, n, wire, rounds = 16, 200, 120, 6
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithCohort(n, 5), loloha.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]loloha.Registration, wire)
	payloads := make([][]byte, wire)
	for i := range regs {
		cl := proto.NewClient(uint64(i) + 1000)
		regs[i] = cl.WireRegistration()
		payloads[i] = cl.AppendReport(nil, i%k)
	}

	var wg sync.WaitGroup
	var accepted atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range regs {
			if err := stream.Enroll(n+i, regs[i]); err != nil {
				t.Error(err)
				return
			}
			if err := stream.Ingest(n+i, payloads[i]); err != nil {
				t.Error(err)
				return
			}
			accepted.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			stream.Pending()
			if err := stream.Snapshot(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	values := make([]int, n)
	total := 0
	for round := 0; round < rounds; round++ {
		for u := range values {
			values[u] = (u + round) % k
		}
		res, err := stream.Collect(values)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Reports
	}
	wg.Wait()
	total += stream.CloseRound().Reports
	if want := rounds*n + int(accepted.Load()); total != want {
		t.Fatalf("published %d reports over all rounds, want %d cohort + %d wire", total, rounds*n, accepted.Load())
	}
}

// TestStreamMixesWireAndCohortReports: a wire report ingested before
// Collect lands in the same round as the cohort's reports, and the
// cohort's ID range [0..n) is fenced off from wire enrollment (a shared
// ID would tally one user twice per round).
func TestStreamMixesWireAndCohortReports(t *testing.T) {
	const k, n = 8, 40
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithCohort(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	wire := proto.NewClient(999)
	if err := stream.Enroll(10_000, wire.WireRegistration()); err != nil {
		t.Fatal(err)
	}
	if err := stream.Ingest(10_000, wire.AppendReport(nil, 2)); err != nil {
		t.Fatal(err)
	}
	res, err := stream.Collect(make([]int, n))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports != n+1 {
		t.Fatalf("reports=%d, want %d cohort + 1 wire", res.Reports, n+1)
	}
	// Cohort-owned IDs are rejected on every wire entry point.
	if err := stream.Enroll(n-1, wire.WireRegistration()); err == nil {
		t.Fatal("wire enrollment under a cohort client ID accepted")
	}
	if err := stream.Ingest(n-1, wire.AppendReport(nil, 1)); err == nil {
		t.Fatal("wire report under a cohort client ID accepted")
	}
	if err := stream.IngestBatch([]int{0}, [][]byte{wire.AppendReport(nil, 1)}); err == nil {
		t.Fatal("batched wire report under a cohort client ID accepted")
	}
}

// TestStreamSubscribe: every published round reaches each subscriber in
// order, Close terminates the channels, and a slow subscriber misses
// rounds instead of blocking CloseRound.
func TestStreamSubscribe(t *testing.T) {
	proto, err := loloha.NewBiLOLOHA(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithRoundCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	sub := stream.Subscribe()
	for i := 0; i < 3; i++ {
		stream.CloseRound()
	}
	for i := 0; i < 3; i++ {
		res, ok := <-sub
		if !ok || res.Round != i {
			t.Fatalf("subscription round %d: ok=%v res=%+v", i, ok, res)
		}
	}
	// Overflow the buffer: rounds 3..8 publish into capacity 4, so the
	// subscriber sees exactly rounds 3,4,5,6 and misses 7,8.
	for i := 0; i < 6; i++ {
		stream.CloseRound()
	}
	stream.Close()
	var got []int
	for res := range sub {
		got = append(got, res.Round)
	}
	if len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("lagging subscriber got rounds %v, want [3 4 5 6]", got)
	}
	if res, ok := <-stream.Subscribe(); ok {
		t.Fatalf("subscription after Close delivered %+v", res)
	}
	// History still backfills the missed rounds.
	if res, err := stream.Round(8); err != nil || res.Round != 8 {
		t.Fatalf("Round(8) after Close: %+v, %v", res, err)
	}
}

// TestStreamPostProcessAndHeavyHitters: RoundResult carries raw and
// post-processed estimates plus the tracker's heavy-hitter set.
func TestStreamPostProcessAndHeavyHitters(t *testing.T) {
	const k, n = 12, 4000
	proto, err := loloha.NewBiLOLOHA(k, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto,
		loloha.WithCohort(n, 5),
		loloha.WithPostProcess(loloha.PostSimplex),
		loloha.WithHeavyHitters(loloha.HeavyHitterConfig{Threshold: 0.2, Alpha: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int, n)
	for u := range values {
		values[u] = u % 3 // 1/3 mass each on 0,1,2
	}
	res, err := stream.Collect(values)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, e := range res.Estimates {
		if e < 0 {
			t.Fatalf("simplex-projected estimate %v < 0", e)
		}
		sum += e
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("simplex-projected estimates sum to %v", sum)
	}
	if equalFloats(res.Raw, res.Estimates) {
		t.Fatal("post-processing left estimates identical to raw (LDP noise makes that implausible)")
	}
	if len(res.HeavyHitters) != 3 {
		t.Fatalf("heavy hitters %+v, want the three 1/3-mass values", res.HeavyHitters)
	}
	for _, h := range res.HeavyHitters {
		if h.Value > 2 {
			t.Fatalf("false heavy hitter %+v", h)
		}
	}
}

// TestStreamBatchErrors: a batch with unknown, duplicate and malformed
// entries tallies the good reports and reports every failure.
func TestStreamBatchErrors(t *testing.T) {
	const k = 10
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	good := proto.NewClient(1)
	if err := stream.Enroll(0, good.WireRegistration()); err != nil {
		t.Fatal(err)
	}
	payload := good.AppendReport(nil, 3)
	err = stream.IngestBatch(
		[]int{0, 99, 0, 0},
		[][]byte{payload, payload, {}, payload},
	)
	if err == nil {
		t.Fatal("batch with unenrolled, malformed and duplicate entries returned nil error")
	}
	res := stream.CloseRound()
	if res.Reports != 1 {
		t.Fatalf("reports=%d, want exactly the one good report", res.Reports)
	}
	if err := stream.IngestBatch([]int{0}, nil); err == nil {
		t.Fatal("mismatched batch lengths accepted")
	}
}

// TestStreamOptionValidation: the constructor rejects bad options.
func TestStreamOptionValidation(t *testing.T) {
	proto, err := loloha.NewBiLOLOHA(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]loloha.StreamOption{
		"negative shards":    {loloha.WithShards(-1)},
		"zero cohort":        {loloha.WithCohort(0, 1)},
		"zero round cap":     {loloha.WithRoundCapacity(0)},
		"bad heavy hitters":  {loloha.WithHeavyHitters(loloha.HeavyHitterConfig{Threshold: 2})},
		"mismatched tracker": {loloha.WithHeavyHitters(loloha.HeavyHitterConfig{K: 99, Threshold: 0.1})},
	} {
		if _, err := loloha.NewStream(proto, opts...); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := loloha.NewStream(nil); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := stream_CollectWithoutCohort(proto); err == nil {
		t.Error("Collect without WithCohort accepted")
	}
}

func stream_CollectWithoutCohort(proto loloha.Protocol) (loloha.RoundResult, error) {
	s, err := loloha.NewStream(proto)
	if err != nil {
		return loloha.RoundResult{}, err
	}
	return s.Collect([]int{1})
}

// TestStreamConcurrentEnrollIngestSubscribe hammers the service the way
// the redesign intends it to be used: goroutines enrolling and batch- and
// per-report-ingesting concurrently while a subscriber streams results
// across rounds. Run with -race.
func TestStreamConcurrentEnrollIngestSubscribe(t *testing.T) {
	const k, n, rounds, workers = 16, 240, 4, 6
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithShards(4), loloha.WithRoundCapacity(rounds))
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]loloha.Client, n)
	regs := make([]loloha.Registration, n)
	for u := range clients {
		clients[u] = proto.NewClient(uint64(u) + 1)
		regs[u] = clients[u].WireRegistration()
	}

	sub := stream.Subscribe()
	var subWG sync.WaitGroup
	subWG.Add(1)
	var received []loloha.RoundResult
	go func() {
		defer subWG.Done()
		for res := range sub {
			received = append(received, res)
		}
	}()

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo, hi := w*n/workers, (w+1)*n/workers
				var ids []int
				var payloads [][]byte
				for u := lo; u < hi; u++ {
					if err := stream.Enroll(u, regs[u]); err != nil {
						t.Error(err)
						return
					}
					payload := clients[u].AppendReport(nil, u%k)
					if u%2 == 0 {
						if err := stream.Ingest(u, payload); err != nil {
							t.Error(err)
							return
						}
					} else {
						ids = append(ids, u)
						payloads = append(payloads, payload)
					}
				}
				if err := stream.IngestBatch(ids, payloads); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		if res := stream.CloseRound(); res.Reports != n {
			t.Fatalf("round %d: reports=%d, want %d", round, res.Reports, n)
		}
	}
	stream.Close()
	subWG.Wait()
	if len(received) != rounds {
		t.Fatalf("subscriber received %d rounds, want %d", len(received), rounds)
	}
	for i, res := range received {
		if res.Round != i {
			t.Fatalf("subscription out of order: got round %d at position %d", res.Round, i)
		}
	}
	if stream.Enrolled() != n {
		t.Fatalf("enrolled %d, want %d", stream.Enrolled(), n)
	}
}

// FuzzStreamIngestBatch: arbitrary batch payloads — truncated, trailing,
// garbage — must either tally or error, never panic, and never corrupt
// the round accounting.
func FuzzStreamIngestBatch(f *testing.F) {
	f.Add([]byte{}, []byte{0x01})
	f.Add([]byte{0x00}, []byte{0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00}, []byte{0x01, 0x02, 0x03, 0x04, 0x05})
	proto, err := loloha.NewRAPPOR(24, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		stream, err := loloha.NewStream(proto, loloha.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 2; u++ {
			if err := stream.Enroll(u, loloha.Registration{}); err != nil {
				t.Fatal(err)
			}
		}
		batchErr := stream.IngestBatch([]int{0, 1}, [][]byte{a, b})
		res := stream.CloseRound()
		if len(res.Raw) != 24 {
			t.Fatalf("round published %d estimates, want 24", len(res.Raw))
		}
		// A 24-bit UE payload is exactly 3 bytes; anything else must have
		// been rejected and the accounting must agree with the error.
		want := 0
		if len(a) == 3 {
			want++
		}
		if len(b) == 3 {
			want++
		}
		if res.Reports != want {
			t.Fatalf("tallied %d reports from payload lengths %d,%d (want %d; err=%v)",
				res.Reports, len(a), len(b), want, batchErr)
		}
		if want < 2 && batchErr == nil {
			t.Fatal("malformed payload tallied without error")
		}
	})
}
