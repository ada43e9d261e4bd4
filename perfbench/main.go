// Command perfbench is the repository's pipeline benchmark. It runs one
// of three closed-loop workloads on the paper's §5.1 datasets, checks
// that the estimates are correct, and prints every metric by name with
// its unit; the last line of standard output is the result as JSON.
//
//	go run . --workload ingest-adult-tcp --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run also records spans around every layer call the
// benchmark makes, replays the generated inputs through each layer's
// entry points on a replica, writes the spans to a trace file and prints
// the per-layer metrics instead of the end-to-end ones. README.md lists
// the workloads, the metrics and the layer each metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	// The LOLOHA families register themselves with the protocol registry.
	_ "github.com/loloha-ldp/loloha/internal/core"
	"github.com/loloha-ldp/loloha/internal/longitudinal"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds the run's outbox spools, snapshots and trace file.
	dir string
	// n and tau, when positive, shrink the dataset (self-tests only).
	n, tau int
	// setups is how many times the system is built; setup_s is their median.
	setups int
	// replayRounds is how many dataset rounds the per-layer replays use.
	replayRounds int
	// injectBad adds one report the server must reject (self-tests only).
	injectBad bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: collect-syn, ingest-adult-tcp or tree-syn-http")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = 9
	cfg.replayRounds = 8
	cfg.dir = filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v go=%s %s/%s cpus=%d gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.print(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workload is one named traffic mix. README.md gives the reason each
// exists and the layers it stresses.
type workload struct {
	name    string
	dataset string
	spec    longitudinal.ProtocolSpec
	// batch is the reports per wire batch; parts the connections (or
	// leaves) the users are split across.
	batch, parts int
	setup        func(cfg config, in *inputs, dir string) (sut, error)
}

// ε∞ = 2 and α = ε1/ε∞ = 0.5 on every workload.
const epsInf, eps1 = 2, 1

var workloads = []*workload{
	{
		name: "collect-syn", dataset: "syn",
		spec:  longitudinal.ProtocolSpec{Family: "BiLOLOHA", K: 360, EpsInf: epsInf, Eps1: eps1},
		batch: 1024, parts: 1, setup: setupCollect,
	},
	{
		name: "ingest-adult-tcp", dataset: "adult",
		spec:  longitudinal.ProtocolSpec{Family: "1BitFlipPM", K: 96, B: 96, D: 1, EpsInf: epsInf},
		batch: 256, parts: 2, setup: setupTCP,
	},
	{
		name: "tree-syn-http", dataset: "syn",
		spec:  longitudinal.ProtocolSpec{Family: "BiLOLOHA", K: 360, EpsInf: epsInf, Eps1: eps1},
		batch: 1024, parts: 2, setup: setupTree,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sut is a built system under test.
type sut interface {
	// round runs stream round id over dataset round d as a closed loop
	// and returns what the benchmark observed; tr may be nil.
	round(id, d int, tr *tracer) (roundObs, error)
	// status returns the failure and status counters accumulated so far.
	status() (statusCounts, error)
	close()
}

// roundObs is what one round looked like from outside the system.
type roundObs struct {
	reports int
	// latency runs from the round's first send to its RoundResult; publish
	// from the round-close request to the RoundResult (0 in-process).
	latency, publish time.Duration
	acks             []time.Duration
	raw              []float64
}

type statusCounts struct {
	rejected, mergeBad, mergeDup, shipRetries, shipFailed, partialRounds, droppedRounds uint64
}

func (s statusCounts) failures() uint64 {
	return s.rejected + s.mergeBad + s.shipFailed + s.partialRounds + s.droppedRounds
}
