package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-tests check
// the emitted metrics against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyConfig is a workload shrunk to a few hundred milliseconds: small n
// and τ, a short window, two setups and two replayed rounds.
func tinyConfig(t *testing.T, name string) config {
	return config{
		workload: name, seed: 7, seconds: 0.2, dir: t.TempDir(),
		n: 2000, tau: 6, setups: 2, replayRounds: 2,
	}
}

// TestTinyWorkloads runs every workload of BENCHMARK.json at a tiny size,
// untraced and traced: each must pass its correctness gate and emit
// exactly the metrics the file lists for that mode, with their units.
func TestTinyWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w.Name)
			cfg.trace = trace
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, out.Correct, out.Failed, out.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestInjectedBadReportFails checks that one report the server must refuse
// raises the error rate above zero and fails the run on every workload.
func TestInjectedBadReportFails(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t, w.name)
		cfg.injectBad = true
		out, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.Failed == 0 || out.Correct {
			t.Errorf("%s: injected bad report gave failed=%d correct=%v, want failed > 0", w.name, out.Failed, out.Correct)
		}
	}
}

// TestReferenceCheckCatchesDivergence checks that the bit-identity gate
// flags an estimate that differs from the reference stream's.
func TestReferenceCheckCatchesDivergence(t *testing.T) {
	wl, err := lookup("ingest-adult-tcp")
	if err != nil {
		t.Fatal(err)
	}
	in, err := prepare(tinyConfig(t, wl.name), wl)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := wl.setup(config{}, in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	obs, err := sys.round(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := sample{d: 1, raw: obs.raw}
	if bad, err := checkReference(in, []sample{good}); err != nil || bad != 0 {
		t.Fatalf("unchanged estimate: %d bad, err %v", bad, err)
	}
	skewed := append([]float64(nil), obs.raw...)
	skewed[3] += 1e-12
	if bad, err := checkReference(in, []sample{good, {d: 1, raw: skewed}}); err != nil || bad != 1 {
		t.Fatalf("skewed estimate: %d bad, err %v; want 1", bad, err)
	}
}

// TestGeneratorDeterministic checks that the generated traffic depends on
// the seed alone: the same seed gives byte-identical batches, another seed
// different ones.
func TestGeneratorDeterministic(t *testing.T) {
	wl, err := lookup("tree-syn-http")
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed uint64) [][][][]byte {
		cfg := tinyConfig(t, wl.name)
		cfg.seed = seed
		in, err := prepare(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		return in.sends
	}
	same := func(a, b [][][][]byte) bool {
		for d := range a {
			for p := range a[d] {
				for i := range a[d][p] {
					if string(a[d][p][i]) != string(b[d][p][i]) {
						return false
					}
				}
			}
		}
		return true
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !same(a, b) {
		t.Error("seed 7 generated different traffic twice")
	}
	if same(a, c) {
		t.Error("seeds 7 and 8 generated the same traffic")
	}
}
