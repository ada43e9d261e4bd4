// Benchmarks regenerating every table and figure of the paper's evaluation
// at benchmark-friendly scale, plus the ablation and throughput benches
// DESIGN.md calls out. Full paper-scale runs are the job of cmd/lolohasim;
// these benches exercise the identical code paths and report the domain
// metric (mse, eps-spent, detection rate, bytes/report) via b.ReportMetric
// so regressions in either speed or fidelity are visible.
//
//	go test -bench=. -benchmem
package loloha_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	loloha "github.com/loloha-ldp/loloha"
	"github.com/loloha-ldp/loloha/internal/analysis"
	"github.com/loloha-ldp/loloha/internal/attack"
	"github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/datasets"
	"github.com/loloha-ldp/loloha/internal/hashfamily"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
	"github.com/loloha-ldp/loloha/internal/randsrc"
	"github.com/loloha-ldp/loloha/internal/simulation"
)

// benchSink prevents dead-code elimination of benchmark results.
var benchSink any

// ---------------------------------------------------------------------------
// Fig. 1: optimal g curves (closed form, full paper grid).

func BenchmarkFig1OptimalG(b *testing.B) {
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	grid := analysis.DefaultEpsInfGrid()
	var last []analysis.Fig1Point
	for i := 0; i < b.N; i++ {
		last = analysis.Fig1(grid, alphas)
	}
	benchSink = last
	b.ReportMetric(float64(last[len(last)-1].OptimalG), "max-g")
}

// ---------------------------------------------------------------------------
// Fig. 2: numeric V* comparison (closed form, full paper grid, n = 10000).

func BenchmarkFig2Variance(b *testing.B) {
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	grid := analysis.DefaultEpsInfGrid()
	var pts []analysis.Fig2Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = analysis.Fig2(10000, grid, alphas)
		if err != nil {
			b.Fatal(err)
		}
	}
	benchSink = pts
	b.ReportMetric(float64(len(pts)), "points")
}

// ---------------------------------------------------------------------------
// Table 1: communication cost — measured bytes per steady-state report.

func BenchmarkTable1Communication(b *testing.B) {
	const k, epsInf, eps1 = 360, 2.0, 1.0
	protos := map[string]loloha.Protocol{}
	if p, err := loloha.NewOLOLOHA(k, epsInf, eps1); err == nil {
		protos["OLOLOHA"] = p
	}
	if p, err := loloha.NewRAPPOR(k, epsInf, eps1); err == nil {
		protos["RAPPOR"] = p
	}
	if p, err := loloha.NewLGRR(k, epsInf, eps1); err == nil {
		protos["L-GRR"] = p
	}
	if p, err := loloha.NewDBitFlipPM(k, 90, 4, epsInf); err == nil {
		protos["dBitFlipPM"] = p
	}
	for name, proto := range protos {
		proto := proto
		b.Run(name, func(b *testing.B) {
			cl := proto.NewClient(1)
			var buf []byte
			bytesPerReport := 0
			for i := 0; i < b.N; i++ {
				buf = cl.AppendReport(buf[:0], i%k)
				bytesPerReport = len(buf)
			}
			benchSink = buf
			b.ReportMetric(float64(bytesPerReport), "bytes/report")
			b.ReportMetric(float64(proto.SteadyReportBits()), "bits(theory)")
		})
	}
}

// ---------------------------------------------------------------------------
// Fig. 3: MSE_avg — one scaled-down collection per iteration, per dataset
// family and protocol.

func benchDataset(name string) *datasets.Dataset {
	switch name {
	case "syn":
		return datasets.Syn(datasets.SynConfig{K: 60, N: 2500, Tau: 8, Seed: 1})
	case "adult":
		return datasets.Adult(datasets.AdultConfig{N: 2500, Tau: 8, Seed: 1})
	default: // folk
		d, err := datasets.Folk(datasets.FolkConfig{Name: "folk", K: 300, N: 2500, Tau: 8, Seed: 1})
		if err != nil {
			panic(err)
		}
		return d
	}
}

func BenchmarkFig3MSE(b *testing.B) {
	for _, dsName := range []string{"syn", "adult", "folk"} {
		ds := benchDataset(dsName)
		for _, proto := range []string{"RAPPOR", "L-OSUE", "L-GRR", "BiLOLOHA", "OLOLOHA", "bBitFlipPM"} {
			spec, err := simulation.SpecByName("syn", ds.K, proto)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", dsName, proto), func(b *testing.B) {
				var mse float64
				for i := 0; i < b.N; i++ {
					pts, err := simulation.RunMSE(ds, []simulation.Spec{spec}, simulation.Config{
						EpsInfs: []float64{2.0}, Alphas: []float64{0.5},
						Runs: 1, Seed: uint64(i), Workers: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					mse = pts[0].Mean
				}
				b.ReportMetric(mse, "mse")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Fig. 4: averaged longitudinal privacy loss per protocol.

func BenchmarkFig4PrivacyLoss(b *testing.B) {
	ds := benchDataset("syn")
	for _, proto := range []string{"RAPPOR", "BiLOLOHA", "OLOLOHA", "bBitFlipPM", "1BitFlipPM"} {
		spec, err := simulation.SpecByName("syn", ds.K, proto)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(proto, func(b *testing.B) {
			var eps float64
			for i := 0; i < b.N; i++ {
				pts, err := simulation.RunPrivacyLoss(ds, []simulation.Spec{spec}, simulation.Config{
					EpsInfs: []float64{2.0}, Alphas: []float64{0.5},
					Runs: 1, Seed: uint64(i), Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				eps = pts[0].Mean
			}
			b.ReportMetric(eps, "eps-spent")
		})
	}
}

// ---------------------------------------------------------------------------
// Table 2: dBitFlipPM change detection for d = 1 and d = b.

func BenchmarkTable2Detection(b *testing.B) {
	ds := benchDataset("syn")
	values := make([][]int, ds.Tau())
	for t := range values {
		values[t] = ds.Round(t)
	}
	for _, d := range []int{1, 30} {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			proto, err := longitudinal.NewDBitFlipPM(ds.K, 30, d, 2.0)
			if err != nil {
				b.Fatal(err)
			}
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := attack.DetectDBitFlipChanges(proto, values, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				rate = res.FullyDetectedRate()
			}
			b.ReportMetric(rate, "detect-rate")
		})
	}
}

// ---------------------------------------------------------------------------
// Throughput benches: the per-report client and per-report server costs
// that Table 1 summarizes asymptotically.

func BenchmarkClientReport(b *testing.B) {
	const k = 360
	mk := map[string]func() (loloha.Protocol, error){
		"BiLOLOHA": func() (loloha.Protocol, error) { return loloha.NewBiLOLOHA(k, 2, 1) },
		"OLOLOHA":  func() (loloha.Protocol, error) { return loloha.NewOLOLOHA(k, 2, 1) },
		"RAPPOR":   func() (loloha.Protocol, error) { return loloha.NewRAPPOR(k, 2, 1) },
		"L-OSUE":   func() (loloha.Protocol, error) { return loloha.NewLOSUE(k, 2, 1) },
		"L-GRR":    func() (loloha.Protocol, error) { return loloha.NewLGRR(k, 2, 1) },
		"dBitFlip": func() (loloha.Protocol, error) { return loloha.NewDBitFlipPM(k, 90, 4, 2) },
	}
	for name, f := range mk {
		f := f
		b.Run(name, func(b *testing.B) {
			proto, err := f()
			if err != nil {
				b.Fatal(err)
			}
			cl := proto.NewClient(1)
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = cl.AppendReport(buf[:0], i%k)
			}
			benchSink = buf
		})
	}
}

func BenchmarkAggregatorTallyWire(b *testing.B) {
	const k = 360
	for name, f := range map[string]func() (loloha.Protocol, error){
		"BiLOLOHA": func() (loloha.Protocol, error) { return loloha.NewBiLOLOHA(k, 2, 1) },
		"RAPPOR":   func() (loloha.Protocol, error) { return loloha.NewRAPPOR(k, 2, 1) },
		"L-GRR":    func() (loloha.Protocol, error) { return loloha.NewLGRR(k, 2, 1) },
	} {
		f := f
		b.Run(name, func(b *testing.B) {
			proto, err := f()
			if err != nil {
				b.Fatal(err)
			}
			// Pre-generate a pool of payloads from a modest user set so the
			// tally dominates the measurement.
			const pool = 256
			payloads := make([][]byte, pool)
			regs := make([]loloha.Registration, pool)
			for u := 0; u < pool; u++ {
				cl := proto.NewClient(uint64(u))
				payloads[u], regs[u] = cl.AppendReport(nil, u%k), cl.WireRegistration()
			}
			tallier := proto.(loloha.TallyProtocol).WireTallier()
			agg := proto.NewAggregator()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tallier.TallyWire(agg, i%pool, payloads[i%pool], regs[i%pool]); err != nil {
					b.Fatal(err)
				}
			}
			benchSink = agg
		})
	}
}

// ---------------------------------------------------------------------------
// Sharded collection scaling: the ISSUE 1 tentpole. Collect at 100k and 1M
// users across shard counts — reports/s should scale near-linearly with
// shards up to the core count, and the estimates are bit-identical to
// serial at every setting (asserted by TestShardedCollectMatchesSerial).

func BenchmarkCollectParallel(b *testing.B) {
	const k = 64
	for _, n := range []int{100_000, 1_000_000} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(b *testing.B) {
				proto, err := loloha.NewBiLOLOHA(k, 2, 1)
				if err != nil {
					b.Fatal(err)
				}
				cohort, err := loloha.NewStream(proto, loloha.WithCohort(n, 42), loloha.WithShards(shards))
				if err != nil {
					b.Fatal(err)
				}
				values := make([]int, n)
				for u := range values {
					values[u] = u % k
				}
				// Warm round: builds the per-user hash-table caches so the
				// timed rounds measure steady-state throughput.
				if _, err := cohort.Collect(values); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := cohort.Collect(values)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = res
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}
	}
}

func BenchmarkIngestParallel(b *testing.B) {
	// Wire-level ingestion under concurrency: a single-stripe service
	// serializes every Ingest on one mutex; the striped service scales
	// with the ingesting goroutines.
	const k, n = 64, 50_000
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4 // still measures lock contention on small boxes
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			proto, err := loloha.NewBiLOLOHA(k, 2, 1)
			if err != nil {
				b.Fatal(err)
			}
			col, err := loloha.NewStream(proto, loloha.WithShards(shards))
			if err != nil {
				b.Fatal(err)
			}
			payloads := make([][]byte, n)
			for u := 0; u < n; u++ {
				cl := proto.NewClient(uint64(u))
				if err := col.Enroll(u, cl.WireRegistration()); err != nil {
					b.Fatal(err)
				}
				payloads[u] = cl.AppendReport(nil, u%k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for u := w; u < n; u += workers {
							if err := col.Ingest(u, payloads[u]); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				benchSink = col.CloseRound()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md): exact IRR calibration, hash family
// choice.

func BenchmarkAblationIRRCalibration(b *testing.B) {
	// Same (ε∞, ε1, g); the exact calibration should show a lower V* and
	// hence a lower measured MSE on identical workloads.
	ds := benchDataset("syn")
	for name, opts := range map[string][]core.Option{
		"paper": nil,
		"exact": {core.WithExactIRRCalibration()},
	} {
		opts := opts
		b.Run(name, func(b *testing.B) {
			var mse float64
			for i := 0; i < b.N; i++ {
				proto, err := core.New(ds.K, 8, 4.0, 2.0, opts...)
				if err != nil {
					b.Fatal(err)
				}
				spec := simulation.Spec{Name: name, BuildFunc: func(int, float64, float64) (longitudinal.Protocol, error) {
					return proto, nil
				}}
				pts, err := simulation.RunMSE(ds, []simulation.Spec{spec}, simulation.Config{
					EpsInfs: []float64{4.0}, Alphas: []float64{0.5},
					Runs: 1, Seed: uint64(i), Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				mse = pts[0].Mean
			}
			b.ReportMetric(mse, "mse")
		})
	}
}

func BenchmarkAblationPostProcess(b *testing.B) {
	// Replay one BiLOLOHA collection, then score each post-processing
	// method against the truth; MSE is the reported metric.
	ds := benchDataset("syn")
	proto, err := core.NewBinary(ds.K, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	est := simulation.Replay(ds, proto, 1)
	truth := make([][]float64, ds.Tau())
	for t := range truth {
		truth[t] = ds.TrueFrequencies(t)
	}
	for _, m := range []loloha.PostProcess{
		loloha.PostNone, loloha.PostClip, loloha.PostNormalize, loloha.PostSimplex,
	} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			var mse float64
			for i := 0; i < b.N; i++ {
				total := 0.0
				for t := range est {
					round := append([]float64(nil), est[t]...)
					round = loloha.ApplyPostProcess(m, round)
					s := 0.0
					for v := range round {
						d := round[v] - truth[t][v]
						s += d * d
					}
					total += s / float64(ds.K)
				}
				mse = total / float64(ds.Tau())
			}
			b.ReportMetric(mse, "mse")
		})
	}
}

func BenchmarkAblationHashFamily(b *testing.B) {
	const k, g = 1000, 4
	for name, fam := range map[string]hashfamily.Family{
		"splitmix":     hashfamily.NewSplitMixFamily(g),
		"carterwegman": hashfamily.NewCarterWegmanFamily(g),
	} {
		fam := fam
		b.Run(name, func(b *testing.B) {
			proto, err := core.New(k, g, 2, 1, core.WithFamily(fam))
			if err != nil {
				b.Fatal(err)
			}
			r := randsrc.NewSeeded(1)
			cl := proto.NewClient(1)
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = cl.AppendReport(buf[:0], r.Intn(k))
			}
			benchSink = buf
		})
	}
}
