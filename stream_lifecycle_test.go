// Stream lifecycle tests: the slow-subscriber drop policy that the
// networked daemon's SSE hub builds on, and races between enrollment,
// batch ingestion, subscription and Close. The concurrency tests are
// written for -race; they pass without it but prove much less.
package loloha_test

import (
	"sync"
	"sync/atomic"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
)

// TestStreamSlowSubscriberDropPolicy pins the backpressure contract
// documented on WithRoundCapacity: publication never blocks on a
// subscriber — a subscriber whose buffer is full misses that round (drop,
// not block), drops hit only the lagging subscriber, every delivered
// result carries its Round index so gaps are detectable, Round(t)
// backfills what was missed bit-identically, and DroppedRounds counts
// every skipped delivery.
func TestStreamSlowSubscriberDropPolicy(t *testing.T) {
	const k, capacity, rounds = 8, 2, 6
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithRoundCapacity(capacity))
	if err != nil {
		t.Fatal(err)
	}
	cl := proto.NewClient(1)
	if err := stream.Enroll(0, cl.WireRegistration()); err != nil {
		t.Fatal(err)
	}

	slow := stream.Subscribe() // never drained while rounds publish
	fast := stream.Subscribe() // drained after every round
	var delivered []loloha.RoundResult
	for round := 0; round < rounds; round++ {
		// Distinct value per round so the published estimates differ and a
		// backfill comparison cannot pass by accident.
		if err := stream.Ingest(0, cl.AppendReport(nil, round%k)); err != nil {
			t.Fatal(err)
		}
		// CloseRound runs on this goroutine with the slow buffer full from
		// round `capacity` on: if the policy were block-not-drop, this test
		// would deadlock right here.
		stream.CloseRound()
		delivered = append(delivered, <-fast)
	}

	// The fast subscriber saw everything; only the slow one dropped.
	wantDropped := uint64(rounds - capacity)
	if got := stream.DroppedRounds(); got != wantDropped {
		t.Fatalf("DroppedRounds=%d, want %d (slow subscriber only)", got, wantDropped)
	}

	// Draining one slot reopens the buffer: the next round is delivered
	// again, and the gap is visible in the Round indices.
	if res := <-slow; res.Round != 0 {
		t.Fatalf("slow subscriber's first buffered round = %d, want 0", res.Round)
	}
	if err := stream.Ingest(0, cl.AppendReport(nil, 3)); err != nil {
		t.Fatal(err)
	}
	stream.CloseRound()
	delivered = append(delivered, <-fast)
	res := <-slow
	if res.Round != 1 {
		t.Fatalf("slow subscriber's second buffered round = %d, want 1", res.Round)
	}
	prev := res.Round
	res = <-slow
	if res.Round != rounds {
		t.Fatalf("after draining, slow subscriber got round %d, want %d", res.Round, rounds)
	}
	if gap := res.Round - prev - 1; gap != rounds-capacity {
		t.Fatalf("detected gap of %d rounds, want %d", gap, rounds-capacity)
	}

	// Every round the slow subscriber missed backfills from the history,
	// bit-identical to what the fast subscriber received live.
	for miss := capacity; miss < rounds; miss++ {
		got, err := stream.Round(miss)
		if err != nil {
			t.Fatalf("Round(%d): %v", miss, err)
		}
		want := delivered[miss]
		if got.Round != want.Round || got.Reports != want.Reports ||
			!equalFloats(got.Raw, want.Raw) || !equalFloats(got.Estimates, want.Estimates) {
			t.Fatalf("backfilled round %d diverged from the live delivery", miss)
		}
	}
}

// TestStreamSubscribeAfterClose: Close ends the streaming side only —
// later Subscribe calls get already-closed channels, Close is idempotent,
// and ingestion, round closing and the history all remain usable.
func TestStreamSubscribeAfterClose(t *testing.T) {
	proto, err := loloha.NewBiLOLOHA(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto)
	if err != nil {
		t.Fatal(err)
	}
	cl := proto.NewClient(1)
	if err := stream.Enroll(0, cl.WireRegistration()); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	stream.Close() // idempotent
	if _, ok := <-stream.Subscribe(); ok {
		t.Fatal("Subscribe after Close delivered a value")
	}
	if err := stream.Ingest(0, cl.AppendReport(nil, 5)); err != nil {
		t.Fatalf("ingest after Close: %v", err)
	}
	if res := stream.CloseRound(); res.Reports != 1 {
		t.Fatalf("round closed after Close tallied %d reports, want 1", res.Reports)
	}
	if res, err := stream.Round(0); err != nil || res.Reports != 1 {
		t.Fatalf("history after Close: %+v, %v", res, err)
	}
	if got := stream.DroppedRounds(); got != 0 {
		t.Fatalf("publishing to zero live subscribers counted %d drops", got)
	}
}

// TestStreamCloseWhileBatchInFlight races Close against batches that are
// mid-IngestBatch. Close must neither block on them nor corrupt the
// accounting: every report a batch call accepted is tallied in a
// published round, no matter how the race lands.
func TestStreamCloseWhileBatchInFlight(t *testing.T) {
	const k, users, workers, batches = 16, 64, 4, 30
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	type user struct {
		id      int
		payload []byte
	}
	perWorker := make([][]user, workers)
	for w := 0; w < workers; w++ {
		for i := 0; i < users/workers; i++ {
			id := w*(users/workers) + i
			cl := proto.NewClient(uint64(id) + 1)
			if err := stream.Enroll(id, cl.WireRegistration()); err != nil {
				t.Fatal(err)
			}
			perWorker[w] = append(perWorker[w], user{id, cl.AppendReport(nil, id%k)})
		}
	}

	var accepted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine []user) {
			defer wg.Done()
			<-start
			ids := make([]int, len(mine))
			payloads := make([][]byte, len(mine))
			for i, u := range mine {
				ids[i] = u.id
				payloads[i] = u.payload
			}
			for b := 0; b < batches; b++ {
				// Same users every batch: within one round the repeats are
				// duplicate-rejected, after a CloseRound they tally again.
				err := stream.IngestBatch(ids, payloads)
				accepted.Add(int64(len(ids)) - int64(countBatchErrors(err)))
			}
		}(perWorker[w])
	}
	// One goroutine churns rounds, one Closes the streaming side mid-flight.
	tallied := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		total := 0
		for i := 0; i < batches; i++ {
			if i == batches/2 {
				stream.Close()
			}
			total += stream.CloseRound().Reports
		}
		tallied <- total
	}()
	close(start)
	wg.Wait()
	total := <-tallied + stream.CloseRound().Reports

	if got := int64(total); got != accepted.Load() {
		t.Fatalf("published rounds tallied %d reports, batch calls accepted %d", got, accepted.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("no batch report was ever accepted; the race never exercised ingestion")
	}
}

// countBatchErrors counts the per-report rejections inside an IngestBatch
// error (errors.Join of one error per rejected report).
func countBatchErrors(err error) int {
	if err == nil {
		return 0
	}
	if multi, ok := err.(interface{ Unwrap() []error }); ok {
		return len(multi.Unwrap())
	}
	return 1
}

// TestStreamLifecycleRaces points every public entry point at one Stream
// at once — Enroll, Ingest, IngestBatch, CloseRound, Subscribe, Close and
// all the read accessors — and demands the invariants hold when the dust
// settles. The assertions are deliberately loose (exact interleaving is
// nondeterministic); the race detector provides the sharp ones.
func TestStreamLifecycleRaces(t *testing.T) {
	const k, users = 12, 96
	proto, err := loloha.NewBiLOLOHA(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := loloha.NewStream(proto, loloha.WithShards(4), loloha.WithRoundCapacity(2))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	run := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); <-start; f() }()
	}

	// Enrollers + reporters, one goroutine per disjoint user range.
	for w := 0; w < 4; w++ {
		lo, hi := w*users/4, (w+1)*users/4
		run(func() {
			var ids []int
			var payloads [][]byte
			for id := lo; id < hi; id++ {
				cl := proto.NewClient(uint64(id) + 1)
				if err := stream.Enroll(id, cl.WireRegistration()); err != nil {
					t.Error(err)
					return
				}
				payload := cl.AppendReport(nil, id%k)
				if id%2 == 0 {
					stream.Ingest(id, payload) // duplicate-vs-round races are data, not errors
				} else {
					ids = append(ids, id)
					payloads = append(payloads, payload)
				}
			}
			stream.IngestBatch(ids, payloads)
		})
	}
	// Subscribers that appear, drain and disappear while rounds publish.
	for i := 0; i < 3; i++ {
		run(func() {
			sub := stream.Subscribe()
			prev := -1
			for res := range sub {
				if res.Round <= prev {
					t.Errorf("subscription went backwards: %d after %d", res.Round, prev)
					return
				}
				prev = res.Round
			}
		})
	}
	// Round churn, read accessors, and the Close that ends streaming.
	run(func() {
		for i := 0; i < 20; i++ {
			stream.CloseRound()
		}
	})
	run(func() {
		for i := 0; i < 200; i++ {
			stream.Rounds()
			stream.Enrolled()
			stream.Pending()
			stream.DroppedRounds()
			if n := stream.Rounds(); n > 0 {
				if _, err := stream.Round(n - 1); err != nil {
					t.Errorf("Round(%d) with %d published: %v", n-1, n, err)
					return
				}
			}
		}
	})
	run(func() { stream.Close() })

	close(start)
	wg.Wait()
	stream.CloseRound() // flush whatever the last interleaving left pending
	if got := stream.Enrolled(); got != users {
		t.Fatalf("enrolled %d users, want %d", got, users)
	}
	if _, ok := <-stream.Subscribe(); ok {
		t.Fatal("Subscribe after the concurrent Close delivered a value")
	}
}
