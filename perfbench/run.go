package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/loloha-ldp/loloha/internal/datasets"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// inputs is everything generated from the seed before any server exists.
type inputs struct {
	wl     *workload
	proto  longitudinal.Protocol
	seed   uint64
	n, tau int
	// ds and truth (the true histogram of each round) drive collect-syn.
	ds    *datasets.Dataset
	truth [][]float64
	// wire and sends drive the socket workloads: sends[d][p][i] is the
	// byte string put on partition p's connection for its batch i of
	// dataset round d.
	wire  *wire
	sends [][][][]byte
}

func prepare(cfg config, wl *workload) (*inputs, error) {
	proto, err := wl.spec.Build()
	if err != nil {
		return nil, err
	}
	ds, err := newDataset(wl.dataset, cfg.n, cfg.tau, cfg.seed)
	if err != nil {
		return nil, err
	}
	if ds.Tau() < 2 {
		return nil, fmt.Errorf("dataset needs at least 2 rounds, has %d", ds.Tau())
	}
	in := &inputs{wl: wl, proto: proto, seed: cfg.seed, n: ds.N(), tau: ds.Tau()}
	if wl.name == "collect-syn" {
		in.ds = ds
		in.truth = make([][]float64, ds.Tau())
		for t := range in.truth {
			in.truth[t] = ds.TrueFrequencies(t)
		}
		return in, nil
	}
	if in.wire, err = genWire(proto, ds, cfg.seed, ds.Tau(), wl.parts, wl.batch, cfg.injectBad, nil); err != nil {
		return nil, err
	}
	in.sends = in.wire.batches
	if wl.name == "ingest-adult-tcp" {
		in.sends = tcpFrames(in.wire)
	}
	return in, nil
}

// windowStats is one timed window of closed-loop rounds.
type windowStats struct {
	wall     time.Duration
	rounds   int
	reports  int
	pub, ack []time.Duration
	slices   []slice
	p0, p1   procSample
	// heapMB is the live heap after the heapAt-th round of the window.
	heapMB float64
	// mseSum accumulates collect-syn's per-round MSE against the truth.
	mseSum  float64
	samples []sample
}

// slice is one second of a window: the rounds that started in it.
type slice struct {
	reports int
	// busy is the wall time of its rounds, the benchmark's own pauses
	// left out.
	busy time.Duration
	lat  []time.Duration
}

// sliceLen is the length of a window slice. The end-to-end figures are
// medians over a window's slices, so a burst of load from outside the
// benchmark that spoils a few seconds of a run does not move them.
const sliceLen = time.Second

// e2e returns the window's throughput and round-latency p50 and p90 in
// milliseconds, each the median over its slices.
func (w windowStats) e2e() (perS, p50, p90 float64) {
	var rates, p50s, p90s []float64
	for _, sl := range w.slices {
		if len(sl.lat) == 0 {
			continue
		}
		ms := durations(sl.lat, time.Millisecond)
		rates = append(rates, float64(sl.reports)/sl.busy.Seconds())
		p50s = append(p50s, median(ms))
		p90s = append(p90s, quantile(ms, 0.9))
	}
	return median(rates), median(p50s), median(p90s)
}

// sample is a published estimate kept for the reference check.
type sample struct {
	d   int
	raw []float64
}

// Sampled rounds for the reference check: every checkEvery-th round, at
// most maxSamples of them per window.
const checkEvery, maxSamples = 16, 32

// runWindow runs rounds from *next on until seconds have passed, always
// at least one. Dataset rounds cycle through 1..τ−1: round 0 is warm-up.
//
// With heapAt > 0 the window measures the live heap once, after its
// heapAt-th round or at its end if that comes first, and leaves the
// collection out of its wall time. The stream keeps every published
// round, so the heap grows with the rounds done: measuring after a fixed
// number of rounds keeps a faster system from reading as a larger one.
func runWindow(sys sut, in *inputs, seconds float64, heapAt int, next *int, tr *tracer) (windowStats, error) {
	var w windowStats
	var paused time.Duration
	measureHeap := func() {
		t0 := time.Now()
		w.heapMB = liveHeapMB()
		paused += time.Since(t0)
	}
	w.p0 = sampleProc()
	deadline := w.p0.at.Add(time.Duration(seconds * float64(time.Second)))
	for w.rounds == 0 || time.Now().Add(-paused).Before(deadline) {
		id := *next
		*next++
		d := 1 + (id-1)%(in.tau-1)
		start := time.Now()
		i := int((start.Sub(w.p0.at) - paused) / sliceLen)
		for len(w.slices) <= i {
			w.slices = append(w.slices, slice{})
		}
		obs, err := sys.round(id, d, tr)
		if err != nil {
			return w, fmt.Errorf("round %d: %w", id, err)
		}
		w.rounds++
		w.reports += obs.reports
		if obs.publish > 0 {
			w.pub = append(w.pub, obs.publish)
		}
		w.ack = append(w.ack, obs.acks...)
		if in.truth != nil {
			w.mseSum += mse(obs.raw, in.truth[d])
		} else if id%checkEvery == 1 && len(w.samples) < maxSamples {
			w.samples = append(w.samples, sample{d: d, raw: obs.raw})
		}
		sl := &w.slices[i]
		sl.reports += obs.reports
		sl.lat = append(sl.lat, obs.latency)
		sl.busy += time.Since(start)
		if w.rounds == heapAt {
			measureHeap()
		}
	}
	if heapAt > w.rounds {
		measureHeap()
	}
	w.p1 = sampleProc()
	w.wall = w.p1.at.Sub(w.p0.at) - paused
	return w, nil
}

func mse(est, truth []float64) float64 {
	var s float64
	for v := range truth {
		e := est[v] - truth[v]
		s += e * e
	}
	return s / float64(len(truth))
}

// run executes one benchmark run and assembles its result.
func run(cfg config) (output, error) {
	wl, err := lookup(cfg.workload)
	if err != nil {
		return output{}, err
	}
	runDir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(runDir)

	start := time.Now()
	in, err := prepare(cfg, wl)
	if err != nil {
		return output{}, fmt.Errorf("generating inputs: %w", err)
	}
	pregen := time.Since(start)

	// Set up several times and report the median; the last system built
	// is the one measured. Its baseline heap is taken just before it is
	// built, so heap_mb counts server state, not the generated inputs.
	var setups []float64
	var sys sut
	var heap0 float64
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
		}
		// Every setup starts from a collected heap, so garbage left by the
		// previous one is not charged to it.
		heapMB := liveHeapMB()
		if i == cfg.setups-1 {
			heap0 = heapMB
		}
		dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return output{}, err
		}
		t0 := time.Now()
		if sys, err = wl.setup(cfg, in, dir); err != nil {
			return output{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	next := 1
	plain, err := runWindow(sys, in, cfg.seconds, in.tau-1, &next, nil)
	if err != nil {
		return output{}, err
	}
	windows := []windowStats{plain}
	var tr *tracer
	var traced, untraced windowStats
	if cfg.trace {
		// The traced window is compared with an untraced one run after it:
		// both come after the first pass over the dataset, during which
		// the clients' memo caches are still filling.
		tr = newTracer()
		if traced, err = runWindow(sys, in, cfg.seconds, 0, &next, tr); err != nil {
			return output{}, err
		}
		if untraced, err = runWindow(sys, in, cfg.seconds, 0, &next, nil); err != nil {
			return output{}, err
		}
		windows = append(windows, traced, untraced)
	}
	st, err := sys.status()
	if err != nil {
		return output{}, fmt.Errorf("reading status: %w", err)
	}
	lanes := 1
	if c, ok := sys.(*collectSUT); ok {
		lanes = c.stream.CohortShards()
	}
	sys.close()
	sys = nil

	// Correctness gate.
	var rounds, reports int
	var badRounds uint64
	for _, w := range windows {
		rounds += w.rounds
		reports += w.reports
	}
	if in.truth != nil {
		meanMSE := 0.0
		for _, w := range windows {
			meanMSE += w.mseSum
		}
		meanMSE /= float64(rounds)
		v, err := approxVariance(in.proto, in.n)
		if err != nil {
			return output{}, err
		}
		fmt.Printf("check: mean per-round MSE %.4g over %d rounds; analytic V* %.4g (ratio %.3f, band [%.2f, %.2f])\n",
			meanMSE, rounds, v, meanMSE/v, mseBandLow, mseBandHigh)
		if !(meanMSE >= mseBandLow*v && meanMSE <= mseBandHigh*v) {
			badRounds = uint64(rounds)
		}
	} else {
		var samples []sample
		for _, w := range windows {
			samples = append(samples, w.samples...)
		}
		bad, err := checkReference(in, samples)
		if err != nil {
			return output{}, fmt.Errorf("reference check: %w", err)
		}
		fmt.Printf("check: %d sampled rounds against an in-process reference stream, %d differ\n", len(samples), bad)
		badRounds = uint64(bad)
	}
	failed := st.failures() + badRounds
	out := output{
		Correct:   failed == 0,
		Attempted: uint64(reports) + st.rejected + uint64(rounds),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("run: %d rounds in %d slices, %d reports, %d batches timed in %.2fs; pregen %.2fs; error_rate %.3g\n",
		plain.rounds, len(plain.slices), plain.reports, len(plain.ack), plain.wall.Seconds(), pregen.Seconds(),
		float64(out.Failed)/float64(out.Attempted))
	if !cfg.trace {
		put := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }
		perS, p50, p90 := plain.e2e()
		put("reports_per_s", perS, "1/s")
		put("round_ms_p50", p50, "ms")
		put("setup_s", median(setups), "s")
		put("heap_mb", plain.heapMB-heap0, "MiB")
		fmt.Printf("run: round p90 %.2fms, batch ack p50 %.1fus p99 %.1fus, publish p50 %.2fms p90 %.2fms\n",
			p90, median(durations(plain.ack, time.Microsecond)), quantile(durations(plain.ack, time.Microsecond), 0.99),
			median(durations(plain.pub, time.Millisecond)), quantile(durations(plain.pub, time.Millisecond), 0.9))
		return out, nil
	}

	if err := replay(cfg, in, tr); err != nil {
		return output{}, fmt.Errorf("layer replay: %w", err)
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return output{}, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	layerMetrics(out.Metrics, in, plain, traced, untraced, tr, st, lanes, pregen)
	return out, nil
}

// MSE band of the collect-syn check, as a multiple of the analytic
// variance V* (Eq. (5)). Over k = 360 values a single round's MSE has a
// relative standard deviation of about √(2/k) ≈ 0.075, so ±25% is more
// than three of them even for one round, while a wrong estimator (a
// misscaled Eq. (3), a lost shard, a double-counted report) misses it.
const mseBandLow, mseBandHigh = 0.75, 1.25

func approxVariance(p longitudinal.Protocol, n int) (float64, error) {
	av, ok := p.(interface{ ApproxVariance(n int) float64 })
	if !ok {
		return 0, fmt.Errorf("%s has no analytic variance", p.Name())
	}
	return av.ApproxVariance(n), nil
}

// layerMetrics derives the per-layer metrics from the replay spans, the
// traced window, the first window's process counters and the untraced
// window that followed the traced one.
func layerMetrics(m map[string]metric, in *inputs, plain, traced, untraced windowStats, tr *tracer,
	st statusCounts, lanes int, pregen time.Duration) {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ns, us, ms := time.Nanosecond, time.Microsecond, time.Millisecond

	appendNs := tr.perUnit("core.append_report", ns)
	tallyNs := tr.perUnit("longitudinal.tally", ns)
	decodeNs := tr.perUnit("longitudinal.decode_columnar", ns)
	ingestNs := tr.perUnit("server.ingest_columnar", ns)
	closeUs := tr.perUnit("server.close_round", us)
	exportUs := tr.perUnit("server.close_round_export", us)
	appendUs := tr.perUnit("persist.append", us)
	envelopeUs := tr.perUnit("persist.envelope", us)
	shipUs := tr.perUnit("netserver.ship", us)
	put("core.append_report_ns", appendNs, "ns")
	put("longitudinal.tally_ns", tallyNs, "ns")
	put("longitudinal.decode_columnar_ns", decodeNs, "ns")
	put("server.ingest_columnar_ns", ingestNs, "ns")
	put("server.enroll_ns", tr.perUnit("server.enroll", ns), "ns")
	put("server.close_round_us", closeUs, "us")
	put("server.close_round_export_us", exportUs, "us")
	put("persist.append_us", appendUs, "us")
	put("persist.image_bytes", tr.medianSize("persist.image"), "bytes")
	put("persist.envelope_us", envelopeUs, "us")
	put("server.merge_envelope_us", tr.perUnit("server.merge_envelope", us), "us")
	put("netserver.ship_us", shipUs, "us")
	put("server.snapshot_ms", tr.perUnit("server.snapshot", ms), "ms")
	put("server.snapshot_bytes", tr.medianSize("server.snapshot"), "bytes")

	ackP50 := median(durations(traced.ack, us))
	pubP50 := median(durations(traced.pub, ms))
	put("netserver.batch_ack_us_p50", ackP50, "us")
	put("netserver.batch_ack_us_p99", quantile(durations(traced.ack, us), 0.99), "us")
	put("netserver.publish_ms_p50", pubP50, "ms")
	put("netserver.publish_ms_p90", quantile(durations(traced.pub, ms), 0.9), "ms")
	// Residuals: what the live call cost beyond the layers replayed under
	// it. Zero on the workloads without that transport.
	batchNs := decodeNs + ingestNs*float64(in.wl.batch)
	var tcpSelf, httpSelf, treeSelf float64
	switch in.wl.name {
	case "ingest-adult-tcp":
		tcpSelf = ackP50 - batchNs/1e3
	case "tree-syn-http":
		httpSelf = ackP50 - batchNs/1e3
		treeSelf = pubP50 - (exportUs+appendUs+envelopeUs+shipUs+closeUs)/1e3
	}
	put("netserver.tcp_self_us", tcpSelf, "us")
	put("netserver.http_self_us", httpSelf, "us")
	put("netserver.tree_self_ms", treeSelf, "ms")

	// Allocation, GC and CPU figures come from the untraced window, so the
	// tracer's own allocations do not count.
	d0, d1 := plain.p0, plain.p1
	reports := float64(max(plain.reports, 1))
	put("runtime.allocs_per_report", float64(d1.allocs-d0.allocs)/reports, "count")
	put("runtime.bytes_per_report", float64(d1.bytes-d0.bytes)/reports, "bytes")
	put("runtime.gc_cycles", float64(d1.gcs-d0.gcs), "count")
	put("runtime.gc_pause_ms", float64(d1.pauseNs-d0.pauseNs)/1e6, "ms")
	put("proc.cpu_util", (d1.cpu-d0.cpu).Seconds()/plain.wall.Seconds(), "ratio")

	put("netserver.rejected", float64(st.rejected), "count")
	put("netserver.merge_dup", float64(st.mergeDup), "count")
	put("netserver.ship_retries", float64(st.shipRetries), "count")
	put("netserver.ship_failed", float64(st.shipFailed), "count")
	put("netserver.partial_rounds", float64(st.partialRounds), "count")
	put("server.dropped_rounds", float64(st.droppedRounds), "count")

	// unattributed_share: for the socket workloads, the share of each
	// round no layer call covers (the load generator's own gaps); for
	// collect-syn, the share of the Collect call its replayed layers —
	// report generation and tally spread over the cohort's shards, plus
	// the round close — do not explain.
	tracedPerS, roundMs, roundP90 := traced.e2e()
	untracedPerS, untracedMs, _ := untraced.e2e()
	put("round_ms_p90", roundP90, "ms")
	unattributed := 1 - tr.coveredShare("round")
	if in.truth != nil {
		explained := (appendNs+tallyNs)*float64(in.n)/float64(lanes)/1e6 + closeUs/1e3
		unattributed = 1 - explained/roundMs
	}
	put("unattributed_share", unattributed, "ratio")
	put("trace.overhead_reports_per_s", tracedPerS-untracedPerS, "1/s")
	put("trace.overhead_round_ms_p50", roundMs-untracedMs, "ms")
	put("loadgen.pregen_s", pregen.Seconds(), "s")
}

// sameBits reports whether two estimate vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
