package server

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/loloha-ldp/loloha/internal/bitset"
	"github.com/loloha-ldp/loloha/internal/heavyhitter"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/persist"
	"github.com/loloha-ldp/loloha/internal/postprocess"
	"github.com/loloha-ldp/loloha/internal/randsrc"
)

// Stream is the collection service of the library: one configurable,
// thread-safe, multi-round frequency-monitoring pipeline for a single
// longitudinal protocol. It subsumes the former Cohort/Collection pair:
//
//   - Wire path: users Enroll once with registration metadata, then stream
//     raw payload bytes through Ingest (one report), IngestBatch or
//     IngestColumnar (one lock acquisition per shard per batch).
//   - Simulation path: WithCohort attaches in-process clients and Collect
//     drives a complete round from raw values, reporting and tallying the
//     cohort on the same shards.
//
// Rounds are explicit: reports land in the current round until CloseRound
// (or Collect), which publishes a RoundResult to the history and to every
// Subscribe channel. Estimates are bit-identical across shard counts and
// ingestion paths: all randomness lives client-side and shard tallies are
// integer counts.
//
// Internally ingestion is striped: users hash onto shards, each with its
// own lock, enrollment/report maps and aggregator, so concurrent Ingest
// calls from different shards never contend. CloseRound acts as a round
// barrier — it excludes all ingestion, folds every shard's
// longitudinal.Tally into shard 0 and publishes the estimates.
type Stream struct {
	proto longitudinal.Protocol
	// tallier is the one ingestion path: it validates registrations at
	// enrollment and tallies payload bits directly into the shard
	// aggregator with no Report materialized.
	tallier longitudinal.WireTallier

	// specHash fingerprints the stream's protocol configuration
	// (longitudinal.SpecHashOf); columnar batches carry the producer's
	// hash and IngestColumnar rejects the whole batch on mismatch.
	specHash uint64

	// mu is the round barrier: CloseRound/Collect hold it exclusively;
	// Enroll, Ingest and the published-history readers hold it shared
	// (results and subscribers are only mutated under the exclusive lock).
	mu     sync.RWMutex
	shards []*streamShard

	// scratch pools the tally loop's per-shard index lists so
	// steady-state batches reuse memory across calls.
	scratch sync.Pool

	pp      postprocess.Method
	tracker *heavyhitter.Tracker

	results  []RoundResult
	subs     []chan RoundResult
	roundCap int
	dropped  uint64
	closed   bool

	// ledger holds the per-leaf applied-envelope watermarks of a
	// collector-tree root (leaf name → highest applied seq plus
	// attribution counters); nil until the first MergeEnvelope. Guarded by
	// mu: reads under the shared lock, updates under the exclusive lock.
	ledger map[string]persist.LedgerEntry

	// baseRound offsets round indices after RestoreStream: the snapshot's
	// open round was baseRound, rounds published before it are not
	// retained, and results[i] holds round baseRound+i. Zero for a stream
	// that never restored.
	baseRound int

	// Simulation cohort (nil unless WithCohort). Collect splits the users
	// into the contiguous blocks [cohortBounds[i]..cohortBounds[i+1]),
	// fixed at construction: block i reports into cohortBufs[i] and
	// tallies on shards[i]. A user never changes shard, so per-user
	// aggregator state (LOLOHA's support table) is built once.
	clients      []longitudinal.Client
	cohortBounds []int
	cohortBufs   [][]byte
}

// streamShard owns the ingestion state of one stripe of users. Enrollment
// assigns each user a dense slot, so the steady-state hot path pays one
// map lookup per report (userID → slot) instead of two (the former
// map[int]Registration + map[int]bool pair): the registration lives in a
// dense slice and the per-round duplicate check is one bit in a bitset
// that resets every round without reallocating.
type streamShard struct {
	mu       sync.Mutex
	agg      longitudinal.Aggregator
	slots    map[int]int    // userID → slot, assigned at Enroll
	regs     []Registration // slot → enrollment metadata
	reported *bitset.Bitset // slot → reported this round
	tallied  int
}

// batchScratch is the tally loop's reusable working memory: the
// per-shard index lists of the partition phase.
type batchScratch struct {
	perShard [][]int
}

// RoundResult is one published collection round.
type RoundResult struct {
	// Round is the 0-based round index.
	Round int
	// Reports is the number of reports tallied into the round.
	Reports int
	// Raw holds the unbiased Eq. (3) estimates.
	Raw []float64
	// Estimates holds the post-processed estimates (a copy of Raw when the
	// stream was built without WithPostProcess).
	Estimates []float64
	// HeavyHitters is the tracker's current heavy-hitter set; nil unless
	// the stream was built with WithHeavyHitters.
	HeavyHitters []heavyhitter.Hitter
}

// clone returns a deep copy so history, subscribers and the caller never
// share mutable slices.
func (r RoundResult) clone() RoundResult {
	c := r
	c.Raw = append([]float64(nil), r.Raw...)
	c.Estimates = append([]float64(nil), r.Estimates...)
	c.HeavyHitters = append([]heavyhitter.Hitter(nil), r.HeavyHitters...)
	return c
}

// ---------------------------------------------------------------------------
// Options.

// Option configures a Stream.
type Option func(*streamConfig)

type streamConfig struct {
	shards    int
	shardsSet bool
	pp        postprocess.Method
	hh        *heavyhitter.Config
	roundCap  int
	cohortN   int
	cohortSet bool
	seed      uint64
}

// WithShards sets the ingestion stripe count and, when a cohort is
// attached, the collection parallelism: Collect runs one contiguous user
// block per shard. 0 (the default) selects one shard per available CPU;
// 1 fully serializes the service; negative counts are rejected at
// construction.
func WithShards(shards int) Option {
	return func(c *streamConfig) { c.shards = shards; c.shardsSet = true }
}

// WithPostProcess selects the server-side estimate transform applied to
// every RoundResult's Estimates (costs no privacy by Proposition 2.2). The
// unbiased estimates always remain available as RoundResult.Raw.
func WithPostProcess(m postprocess.Method) Option {
	return func(c *streamConfig) { c.pp = m }
}

// WithHeavyHitters attaches a heavy-hitter tracker fed the post-processed
// estimates of every round; RoundResult.HeavyHitters carries its current
// set. cfg.K defaults to the protocol's estimate domain when zero.
func WithHeavyHitters(cfg heavyhitter.Config) Option {
	return func(c *streamConfig) { c.hh = &cfg }
}

// WithRoundCapacity sets the buffer of each Subscribe channel (default
// 16). Must be at least 1.
//
// The buffer is the whole backpressure contract: publication NEVER blocks
// on a subscriber. A subscriber that has n unconsumed rounds buffered when
// CloseRound publishes the next one does not receive that round — it is
// dropped for that subscriber only (drop, not block). Every delivered
// RoundResult carries its Round index, so gaps are detectable, Round(t)
// backfills any missed round from the history, and DroppedRounds counts
// drops across all subscribers. TestStreamSlowSubscriberDropPolicy pins
// this behavior.
func WithRoundCapacity(n int) Option {
	return func(c *streamConfig) { c.roundCap = n }
}

// WithCohort attaches n in-process simulation clients, client u seeded
// randsrc.Derive(seed, u), so Collect can drive complete rounds from raw
// values. The clients own user IDs [0..n): wire enrollment under those
// IDs is rejected, since it would tally a user twice per round.
// Production deployments run clients on devices and use the wire path
// instead.
func WithCohort(n int, seed uint64) Option {
	return func(c *streamConfig) { c.cohortN = n; c.cohortSet = true; c.seed = seed }
}

// NewStream returns a collection service for the protocol, which must
// implement longitudinal.TallyProtocol.
func NewStream(proto longitudinal.Protocol, opts ...Option) (*Stream, error) {
	cfg := streamConfig{roundCap: 16}
	for _, o := range opts {
		o(&cfg)
	}
	if proto == nil {
		return nil, fmt.Errorf("server: nil protocol")
	}
	if cfg.shards < 0 {
		return nil, fmt.Errorf("server: negative shard count %d", cfg.shards)
	}
	if !cfg.shardsSet || cfg.shards == 0 {
		cfg.shards = runtime.GOMAXPROCS(0)
	}
	if cfg.roundCap < 1 {
		return nil, fmt.Errorf("server: round capacity must be at least 1, got %d", cfg.roundCap)
	}
	if cfg.cohortSet && cfg.cohortN < 1 {
		return nil, fmt.Errorf("server: cohort needs at least one user, got %d", cfg.cohortN)
	}
	tp, ok := proto.(longitudinal.TallyProtocol)
	if !ok {
		return nil, fmt.Errorf("server: %T does not implement longitudinal.TallyProtocol", proto)
	}

	s := &Stream{
		proto:    proto,
		tallier:  tp.WireTallier(),
		specHash: longitudinal.SpecHashOf(proto),
		pp:       cfg.pp,
		roundCap: cfg.roundCap,
	}
	s.shards = make([]*streamShard, cfg.shards)
	for i := range s.shards {
		s.shards[i] = &streamShard{
			agg:      proto.NewAggregator(),
			slots:    make(map[int]int),
			reported: bitset.New(0),
		}
	}
	s.scratch.New = func() any {
		return &batchScratch{perShard: make([][]int, len(s.shards))}
	}

	if cfg.hh != nil {
		hhCfg := *cfg.hh
		domain := s.shards[0].agg.EstimateDomain()
		if hhCfg.K == 0 {
			hhCfg.K = domain
		}
		if hhCfg.K != domain {
			return nil, fmt.Errorf("server: heavy-hitter tracker over %d values, protocol estimates %d",
				hhCfg.K, domain)
		}
		tracker, err := heavyhitter.New(hhCfg)
		if err != nil {
			return nil, err
		}
		s.tracker = tracker
	}

	if cfg.cohortSet {
		s.clients = make([]longitudinal.Client, cfg.cohortN)
		for u := range s.clients {
			s.clients[u] = proto.NewClient(randsrc.Derive(cfg.seed, uint64(u)))
		}
		blocks := min(len(s.shards), cfg.cohortN)
		s.cohortBounds = make([]int, blocks+1)
		for i := range s.cohortBounds {
			s.cohortBounds[i] = i * cfg.cohortN / blocks
		}
		s.cohortBufs = make([][]byte, blocks)
	}
	return s, nil
}

// Protocol returns the protocol the stream collects for.
func (s *Stream) Protocol() longitudinal.Protocol { return s.proto }

// Shards returns the number of ingestion stripes.
func (s *Stream) Shards() int { return len(s.shards) }

// shardOf maps a user onto its stripe. The user ID is mixed first so that
// contiguous ID ranges spread evenly regardless of stripe count.
//
//loloha:noalloc
func (s *Stream) shardOf(userID int) *streamShard {
	return s.shards[s.shardIndex(userID)]
}

//loloha:noalloc
func (s *Stream) shardIndex(userID int) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(randsrc.Mix64(uint64(userID)) % uint64(len(s.shards)))
}

// ---------------------------------------------------------------------------
// Wire ingestion.

// checkWireID rejects wire operations on IDs owned by the attached
// cohort: client u of WithCohort(n, seed) is user u, so a wire report
// under the same ID would tally the user twice in one round — exactly the
// duplicate bias the per-round report check exists to prevent.
//
//loloha:noalloc
func (s *Stream) checkWireID(userID int) error {
	if s.clients != nil && userID >= 0 && userID < len(s.clients) {
		return fmt.Errorf("server: user %d is an attached cohort client; wire users must use IDs outside [0..%d)",
			userID, len(s.clients))
	}
	return nil
}

// Enroll registers a user's one-time metadata. The registration is
// validated against the protocol (WireTallier.CheckRegistration) before it
// is stored, so no report can later tally against a malformed one.
// Re-enrollment with different metadata is rejected: a changed hash
// function or changed sampled buckets would corrupt the user's support
// counts. With an attached cohort, wire user IDs must lie outside the
// cohort's [0..n).
func (s *Stream) Enroll(userID int, reg Registration) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkWireID(userID); err != nil {
		return err
	}
	sh := s.shardOf(userID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.enroll(sh, userID, reg)
}

// ErrInvalidRegistration reports enrollment metadata the protocol cannot
// accept (WireTallier.CheckRegistration), e.g. a dBitFlipPM registration
// with the wrong number of sampled buckets or a bucket index out of range.
var ErrInvalidRegistration = errors.New("invalid registration")

// enroll validates reg against the protocol and registers userID on sh,
// whose lock the caller holds.
func (s *Stream) enroll(sh *streamShard, userID int, reg Registration) error {
	if err := s.tallier.CheckRegistration(reg); err != nil {
		return fmt.Errorf("server: user %d: %w: %w", userID, ErrInvalidRegistration, err)
	}
	if slot, ok := sh.slots[userID]; ok {
		// Sampled buckets compare element-wise: two users with equally
		// many but different buckets are NOT interchangeable (their
		// support counts land in different histogram bins).
		prev := sh.regs[slot]
		if prev.HashSeed != reg.HashSeed || !slices.Equal(prev.Sampled, reg.Sampled) {
			return fmt.Errorf("server: user %d already enrolled with different metadata", userID)
		}
		return nil
	}
	slot := len(sh.regs)
	sh.slots[userID] = slot
	sh.regs = append(sh.regs, reg)
	sh.reported.Grow(slot + 1)
	return nil
}

// Ingest tallies one user's payload for the current round. Duplicate
// reports within a round are rejected (they would bias Eq. (3)). The
// steady state performs zero allocations per report: one map lookup
// resolves the user's slot, the duplicate check is a bit test, and the
// payload tallies in place.
//
//loloha:noalloc
func (s *Stream) Ingest(userID int, payload []byte) error {
	ids, rows := [1]int{userID}, [1][]byte{payload}
	if errs := s.tally(batchView{ids: ids[:], rows: rows[:]}); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// IngestBatch tallies a whole batch of payloads, payloads[i] belonging to
// userIDs[i], with one shard-lock acquisition per shard rather than one
// per report. The working memory comes from a pool, so steady-state
// batches allocate nothing (see BenchmarkIngestPath).
//
// The batch is not transactional: every enrolled, non-duplicate,
// well-formed report is tallied, and the returned error joins one error
// per rejected report (nil when all landed). Tallies are integer counts,
// so estimates are bit-identical to ingesting the same reports one at a
// time in any order.
//
//loloha:noalloc
func (s *Stream) IngestBatch(userIDs []int, payloads [][]byte) error {
	if len(userIDs) != len(payloads) {
		return fmt.Errorf("server: batch has %d user IDs for %d payloads", len(userIDs), len(payloads))
	}
	return errors.Join(s.tally(batchView{ids: userIDs, rows: payloads})...)
}

// ErrColumnarMismatch reports a columnar batch built for a different
// protocol configuration than the stream's: its spec hash or payload
// stride disagrees. The whole batch is rejected — the producer's encoder
// is misconfigured, which is a framing-level fault, not a per-report one.
var ErrColumnarMismatch = errors.New("columnar batch does not match the stream's protocol")

// IngestColumnar tallies one decoded columnar batch (see
// longitudinal.DecodeColumnar): the packed payload column tallies cell by
// cell, one shard-lock acquisition per shard per batch, with zero
// steady-state allocations. A batch carrying registration columns enrolls
// each user before tallying (idempotent for already enrolled users; a
// conflicting re-enrollment is reported but the report still tallies
// under the original registration, exactly as a separate
// enroll-then-report sequence would behave; an invalid registration of a
// new user rejects that row).
//
// The spec hash and payload stride must match the stream's protocol;
// otherwise the whole batch is rejected with ErrColumnarMismatch.
// Per-report rejections (not enrolled, duplicate, malformed cell) join
// into the returned error exactly like IngestBatch.
//
//loloha:noalloc
func (s *Stream) IngestColumnar(batch *longitudinal.ColumnarBatch) error {
	if batch.SpecHash != s.specHash {
		return fmt.Errorf("server: batch spec hash %#016x, stream has %#016x: %w",
			batch.SpecHash, s.specHash, ErrColumnarMismatch)
	}
	if stride := s.tallier.PayloadStride(); batch.Count() > 0 && batch.Stride != stride {
		return fmt.Errorf("server: batch payload stride %d, protocol takes %d: %w",
			batch.Stride, stride, ErrColumnarMismatch)
	}
	return errors.Join(s.tally(batchView{ids: batch.IDs, col: batch})...)
}

// batchView is the one shape the tally loop reads. Ingest and IngestBatch
// fill ids and rows; IngestColumnar points col at the decoded batch, whose
// packed payload column and optional registration columns are read in
// place.
type batchView struct {
	ids  []int
	rows [][]byte
	col  *longitudinal.ColumnarBatch
}

// payload returns report i's payload bytes.
//
//loloha:noalloc
func (v batchView) payload(i int) []byte {
	if v.col != nil {
		return v.col.Payload(i)
	}
	return v.rows[i]
}

// tally is the ingestion loop behind Ingest, IngestBatch and
// IngestColumnar: partition the reports by shard, then tally each shard's
// reports under one acquisition of its lock. It returns one error per
// rejected report. A user repeated within the batch is rejected exactly
// like a repeat across calls.
//
//loloha:noalloc
func (s *Stream) tally(v batchView) []error {
	if len(v.ids) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	sc := s.scratch.Get().(*batchScratch)
	defer s.scratch.Put(sc)

	var errs []error
	perShard := sc.perShard
	for i := range perShard {
		perShard[i] = perShard[i][:0]
	}
	for i, u := range v.ids {
		if err := s.checkWireID(u); err != nil {
			errs = append(errs, err)
			continue
		}
		si := s.shardIndex(u)
		perShard[si] = append(perShard[si], i)
	}
	for si, idxs := range perShard {
		if len(idxs) > 0 {
			errs = s.tallyShard(s.shards[si], v, idxs, errs)
		}
	}
	return errs
}

// tallyShard tallies the reports idxs of v, all belonging to sh, under
// one acquisition of sh's lock, appending one error per rejected report.
//
//loloha:noalloc
func (s *Stream) tallyShard(sh *streamShard, v batchView, idxs []int, errs []error) []error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tallier := s.tallier
	enroll := v.col != nil && v.col.HasRegistrations()
	for _, i := range idxs {
		u := v.ids[i]
		if enroll {
			// Cold path: the batch enrolls its users inline. The sampled
			// view aliases the batch's pooled bucket column, so the
			// retained registration clones it.
			reg := v.col.Registration(i)
			//loloha:alloc-ok cold enrollment clones the batch's sampled-bucket view
			reg.Sampled = slices.Clone(reg.Sampled)
			//loloha:alloc-ok cold enrollment extends the shard's slot tables
			if err := s.enroll(sh, u, reg); err != nil {
				errs = append(errs, err)
				if _, enrolled := sh.slots[u]; !enrolled {
					continue // one rejection per row
				}
			}
		}
		slot, found := sh.slots[u]
		if !found {
			errs = append(errs, fmt.Errorf("server: user %d not enrolled", u))
			continue
		}
		if sh.reported.Get(slot) {
			errs = append(errs, fmt.Errorf("server: user %d already reported this round", u))
			continue
		}
		if err := tallier.TallyWire(sh.agg, u, v.payload(i), sh.regs[slot]); err != nil {
			errs = append(errs, fmt.Errorf("server: user %d payload: %w", u, err))
			continue
		}
		sh.reported.Set(slot, true)
		sh.tallied++
	}
	return errs
}

// ---------------------------------------------------------------------------
// Simulation cohort.

// Collect runs one complete collection round for the attached cohort:
// values[u] is client u's current value. Every client reports, the round
// is closed, and its RoundResult returned — wire reports ingested since
// the previous round share the same result. Requires WithCohort.
//
// Every value is checked against [0, K) before any client reports: on
// error the round, the tallies and every client's clock and privacy
// ledger are left untouched.
func (s *Stream) Collect(values []int) (RoundResult, error) {
	if s.clients == nil {
		return RoundResult{}, fmt.Errorf("server: no cohort attached (use WithCohort)")
	}
	if len(values) != len(s.clients) {
		return RoundResult{}, fmt.Errorf("server: got %d values for %d users", len(values), len(s.clients))
	}
	k := s.proto.K()
	for u, v := range values {
		if v < 0 || v >= k {
			return RoundResult{}, fmt.Errorf("server: user %d value %d outside [0..%d)", u, v, k)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Block 0 runs on the caller's goroutine, so a serial stream spawns
	// none.
	errs := make([]error, len(s.cohortBufs))
	var wg sync.WaitGroup
	for i := 1; i < len(errs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.collectBlock(i, values)
		}()
	}
	errs[0] = s.collectBlock(0, values)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return RoundResult{}, err
	}
	return s.closeRoundLocked(len(s.clients)), nil
}

// collectBlock reports cohort block i into its reusable buffer and
// tallies each payload straight into shard i's aggregator. The caller
// holds s.mu exclusively, so no ingestion can touch the shard and its
// lock is not taken — the same barrier closeRoundLocked relies on.
//
//loloha:noalloc
func (s *Stream) collectBlock(i int, values []int) error {
	agg, buf := s.shards[i].agg, s.cohortBufs[i]
	for u := s.cohortBounds[i]; u < s.cohortBounds[i+1]; u++ {
		cl := s.clients[u]
		buf = cl.AppendReport(buf[:0], values[u])
		if err := s.tallier.TallyWire(agg, u, buf, cl.WireRegistration()); err != nil {
			// The stream's own client emitted this payload: a rejection is
			// a protocol implementation bug, and the round is not rolled
			// back.
			return fmt.Errorf("server: cohort user %d: protocol rejected its own report: %w", u, err)
		}
	}
	s.cohortBufs[i] = buf
	return nil
}

// CohortSize returns the number of attached simulation clients (0 without
// WithCohort).
func (s *Stream) CohortSize() int { return len(s.clients) }

// CohortShards returns the number of cohort blocks Collect runs in
// parallel (0 without WithCohort): min(Shards, cohort size).
func (s *Stream) CohortShards() int { return len(s.cohortBufs) }

// PrivacySpent returns each attached client's longitudinal privacy loss ε̌
// so far (nil without WithCohort).
func (s *Stream) PrivacySpent() []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.clients == nil {
		return nil
	}
	out := make([]float64, len(s.clients))
	for u, cl := range s.clients {
		out[u] = cl.PrivacySpent()
	}
	return out
}

// MaxPrivacySpent returns the worst ε̌ across the attached cohort (0
// without WithCohort).
func (s *Stream) MaxPrivacySpent() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	worst := 0.0
	for _, cl := range s.clients {
		if spent := cl.PrivacySpent(); spent > worst {
			worst = spent
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// Round lifecycle and publication.

// CloseRound finalizes the current round, publishes its RoundResult (to
// the history and every subscriber) and opens the next round. The returned
// result is the caller's to keep: history and subscribers hold their own
// copies, so later mutation cannot corrupt Round's results.
func (s *Stream) CloseRound() RoundResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeRoundLocked(0)
}

// foldShards moves the open round of shards 1..S−1 into shard 0, whose
// tally then holds the whole round: tallies are integer counts, so the
// fold is exact in any order. Returns shard 0's tally. Caller holds s.mu
// exclusively.
func (s *Stream) foldShards() *longitudinal.Tally {
	round := s.shards[0].agg.Tally()
	for _, sh := range s.shards[1:] {
		t := sh.agg.Tally()
		if err := round.Add(*t); err != nil {
			// Every shard's aggregator comes from the same NewAggregator.
			panic(fmt.Sprintf("server: folding shard tallies of %T: %v", sh.agg, err))
		}
		t.Reset()
	}
	return round
}

// closeRoundLocked folds the shard tallies, estimates, post-processes and
// publishes. extraReports counts reports tallied outside the shard maps
// (the cohort path). Caller holds s.mu exclusively.
func (s *Stream) closeRoundLocked(extraReports int) RoundResult {
	s.foldShards()
	raw := s.shards[0].agg.EndRound()
	reports := extraReports
	for _, sh := range s.shards {
		reports += sh.tallied
		sh.tallied = 0
		sh.reported.Reset()
	}

	estimates := append([]float64(nil), raw...)
	estimates = postprocess.Apply(s.pp, estimates)
	res := RoundResult{
		Round:     s.baseRound + len(s.results),
		Reports:   reports,
		Raw:       raw,
		Estimates: estimates,
	}
	if s.tracker != nil {
		s.tracker.Observe(estimates)
		res.HeavyHitters = s.tracker.HeavyHitters()
	}
	s.results = append(s.results, res.clone())
	if !s.closed {
		for _, sub := range s.subs {
			// Non-blocking: a subscriber that lags more than its buffer
			// (WithRoundCapacity) misses rounds rather than stalling the
			// round barrier; RoundResult.Round makes gaps detectable and
			// Round(t) backfills them. CloseRound is the only sender and
			// holds s.mu exclusively, so a full buffer can only drain —
			// checking occupancy first skips the clone a select would
			// evaluate and then drop.
			if len(sub) == cap(sub) {
				s.dropped++
				continue
			}
			sub <- res.clone()
		}
	}
	return res
}

// Subscribe returns a channel receiving every subsequently published
// RoundResult. The channel is buffered (WithRoundCapacity); when the
// buffer is full the subscriber misses rounds instead of blocking
// CloseRound — the explicit slow-subscriber policy is drop, never block
// (see WithRoundCapacity). Close closes all subscription channels; after
// Close, Subscribe returns an already-closed channel.
func (s *Stream) Subscribe() <-chan RoundResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan RoundResult, s.roundCap)
	if s.closed {
		close(ch)
		return ch
	}
	s.subs = append(s.subs, ch)
	return ch
}

// Close terminates publication: every subscription channel is closed and
// later Subscribe calls return closed channels. Ingestion and the round
// history remain usable; Close only ends the streaming side.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, sub := range s.subs {
		close(sub)
	}
	s.subs = nil
}

// Round returns a copy of the published result of round t (0-based);
// mutating it cannot corrupt the published history.
func (s *Stream) Round(t int) (RoundResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t >= s.baseRound && t < s.baseRound+len(s.results) {
		return s.results[t-s.baseRound].clone(), nil
	}
	if t >= 0 && t < s.baseRound {
		// Published before the snapshot this stream restored from; the
		// history was not serialized (only the open round's state is).
		return RoundResult{}, fmt.Errorf("server: round %d predates the restored snapshot (history starts at %d)",
			t, s.baseRound)
	}
	return RoundResult{}, fmt.Errorf("server: round %d not published (have %d)", t, s.baseRound+len(s.results))
}

// Rounds returns the index one past the last published round (the open
// round's index). For a stream that never restored this is the number of
// published rounds; after RestoreStream it continues from the snapshot's
// round, although the earlier history itself is not retained.
func (s *Stream) Rounds() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.baseRound + len(s.results)
}

// Enrolled returns the number of enrolled users.
func (s *Stream) Enrolled() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += len(sh.slots)
		sh.mu.Unlock()
	}
	return total
}

// Pending returns the number of reports tallied into the currently open
// round (excluding cohort reports, which close their round in the same
// call). A daemon closing rounds on a timer uses it to skip publishing
// empty rounds.
func (s *Stream) Pending() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.tallied
		sh.mu.Unlock()
	}
	return total
}

// DroppedRounds returns the total number of round deliveries skipped
// because a subscriber's buffer was full (summed over all subscribers; a
// round missed by three subscribers counts three). It makes the drop
// policy of WithRoundCapacity observable without instrumenting every
// subscriber.
func (s *Stream) DroppedRounds() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}
