// Command lolohasim regenerates every table and figure of the paper's
// evaluation:
//
//	lolohasim fig1                      # optimal g curves (Eq. 6)
//	lolohasim fig2                      # numeric V* comparison
//	lolohasim fig3 -dataset syn         # MSE_avg over τ collections
//	lolohasim fig4 -dataset syn         # averaged longitudinal privacy loss
//	lolohasim table1                    # theoretical comparison
//	lolohasim table2 -dataset syn       # dBitFlipPM change detection
//	lolohasim specs                     # registered protocol families
//	lolohasim loadgen                   # drive a running lolohad daemon
//	lolohasim all                       # everything, all datasets
//
// Flags control the grid (-eps, -alphas), the repetitions (-runs), the
// cohort randomness (-seed), parallelism (-workers for grid cells,
// -shards for intra-collection sharding), protocol selection (-proto for
// a subset of the standard set, -spec for a declarative ProtocolSpec JSON
// file) and CSV output (-csv).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	loloha "github.com/loloha-ldp/loloha"
	"github.com/loloha-ldp/loloha/internal/analysis"
	"github.com/loloha-ldp/loloha/internal/datasets"
	"github.com/loloha-ldp/loloha/internal/report"
	"github.com/loloha-ldp/loloha/internal/simulation"
)

type options struct {
	dataset    string
	runs       int
	eps        []float64
	alphas     []float64
	n          int
	seed       uint64
	workers    int
	shards     int
	proto      string
	specFile   string
	csvDir     string
	cpuProfile string
	memProfile string
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lolohasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	cmd := args[0]
	if cmd == "loadgen" {
		// loadgen has its own flag set (daemon address, transport, batch
		// shape) — intercept before the shared experiment flags parse.
		return loadgenCmd(args[1:])
	}

	fs := flag.NewFlagSet("lolohasim", flag.ContinueOnError)
	var o options
	var epsStr, alphaStr string
	var seed64 int64
	fs.StringVar(&o.dataset, "dataset", "all", "dataset: syn, adult, db_mt, db_de or all")
	fs.IntVar(&o.runs, "runs", 3, "repetitions per grid point (paper: 20)")
	fs.StringVar(&epsStr, "eps", "", "comma-separated eps_inf grid (default 0.5..5 step 0.5)")
	fs.StringVar(&alphaStr, "alphas", "", "comma-separated alpha grid (default per figure)")
	fs.IntVar(&o.n, "n", 10000, "cohort size for fig2's numeric variance")
	fs.Int64Var(&seed64, "seed", 42, "experiment seed")
	fs.IntVar(&o.workers, "workers", 0, "parallel cells (0 = GOMAXPROCS)")
	fs.IntVar(&o.shards, "shards", 1, "per-collection user shards, >= 0 (0 or 1 serial; results identical for any value)")
	fs.StringVar(&o.proto, "proto", "", "comma-separated subset of the standard protocols for fig3/fig4 (see `lolohasim specs`)")
	fs.StringVar(&o.specFile, "spec", "", "JSON ProtocolSpec file (object or array) replacing the standard fig3/fig4 protocol set; the grid fills eps_inf/eps1 per cell")
	fs.StringVar(&o.csvDir, "csv", "", "directory to also write CSV results into")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (pprof format)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit (pprof format)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	// Profiles bracket the whole command so a perf regression anywhere in
	// the experiment pipeline — client generation, ingestion, estimation —
	// is diagnosable in place with `go tool pprof`.
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lolohasim: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lolohasim: -memprofile:", err)
			}
		}()
	}
	// Reject rather than silently coerce: a negative count is a typo, and
	// the layers below would quietly serialize the collection.
	if o.shards < 0 {
		return fmt.Errorf("bad -shards: must be >= 0, got %d", o.shards)
	}
	if o.workers < 0 {
		return fmt.Errorf("bad -workers: must be >= 0, got %d", o.workers)
	}
	o.seed = uint64(seed64)

	var err error
	if o.eps, err = parseFloats("-eps", epsStr, analysis.DefaultEpsInfGrid()); err != nil {
		return err
	}
	defAlphas := []float64{0.4, 0.5, 0.6}
	if cmd == "fig1" || cmd == "fig2" {
		defAlphas = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	}
	if o.alphas, err = parseFloats("-alphas", alphaStr, defAlphas); err != nil {
		return err
	}

	switch cmd {
	case "fig1":
		return fig1(o)
	case "fig2":
		return fig2(o)
	case "fig3":
		return overDatasets(o, fig3)
	case "fig4":
		return overDatasets(o, fig4)
	case "table1":
		return table1(o)
	case "table2":
		return overDatasets(o, table2)
	case "ablation":
		return ablation(o)
	case "specs":
		return specsCmd(os.Stdout)
	case "all":
		if err := fig1(o); err != nil {
			return err
		}
		if err := fig2(o); err != nil {
			return err
		}
		if err := table1(o); err != nil {
			return err
		}
		for _, f := range []func(options, *datasets.Dataset) error{fig3, fig4, table2} {
			if err := overDatasets(o, f); err != nil {
				return err
			}
		}
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: lolohasim <command> [flags]
commands:  fig1 fig2 fig3 fig4 table1 table2 ablation specs loadgen all
protocols: %s (-proto; families via 'lolohasim specs')
flags:     -dataset -runs -eps -alphas -n -seed -workers -shards -proto -spec -csv
           -cpuprofile -memprofile
loadgen:   drive a running lolohad daemon ('lolohasim loadgen -h')
`, strings.Join(simulation.StandardSpecNames(), " "))
}

// parseFloats parses a comma-separated float list; errors carry the flag
// name and the offending token rather than a bare strconv message.
func parseFloats(flagName, s string, def []float64) ([]float64, error) {
	if s == "" {
		return def, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s: token %q: %w", flagName, p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// specsFor resolves the protocol set for a dataset-driven figure: the
// standard §5.1 specs by default, a -proto subset of them, or the contents
// of a -spec JSON file built through the protocol family registry.
func specsFor(o options, ds *datasets.Dataset) ([]simulation.Spec, error) {
	if o.specFile != "" {
		if o.proto != "" {
			return nil, fmt.Errorf("-proto and -spec are mutually exclusive")
		}
		data, err := os.ReadFile(o.specFile)
		if err != nil {
			return nil, err
		}
		protos, err := loloha.ParseSpecs(data)
		if err != nil {
			return nil, err
		}
		if len(protos) == 0 {
			return nil, fmt.Errorf("-spec %s: no protocol specs in file", o.specFile)
		}
		specs := make([]simulation.Spec, 0, len(protos))
		seen := map[string]int{}
		for _, ps := range protos {
			name := ps.Family
			if seen[name]++; seen[name] > 1 {
				name = fmt.Sprintf("%s#%d", ps.Family, seen[ps.Family])
			}
			specs = append(specs, simulation.Spec{Name: name, Proto: ps})
		}
		return specs, nil
	}
	specs := simulation.StandardSpecs(ds.Name, ds.K)
	if o.proto == "" {
		return specs, nil
	}
	var kept []simulation.Spec
	for _, name := range strings.Split(o.proto, ",") {
		s, err := simulation.SpecByName(ds.Name, ds.K, strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("bad -proto: %w", err)
		}
		kept = append(kept, s)
	}
	return kept, nil
}

// specsCmd prints the registered protocol families with their parameter
// domains: everything a declarative ProtocolSpec (-spec) can build.
func specsCmd(w io.Writer) error {
	fmt.Fprintln(w, "== Registered protocol families (loloha.RegisterFamily) ==")
	tbl := report.NewTable("family", "required", "optional", "description")
	fields := func(fs []loloha.SpecField) string {
		if len(fs) == 0 {
			return "-"
		}
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = string(f)
		}
		return strings.Join(parts, ",")
	}
	for _, name := range loloha.Families() {
		info, ok := loloha.LookupFamily(name)
		if !ok {
			continue
		}
		tbl.AddRow(name, fields(info.Required), fields(info.Optional), info.Doc)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nstandard simulation set (-proto): %s\n",
		strings.Join(simulation.StandardSpecNames(), ", "))
	return nil
}

func overDatasets(o options, f func(options, *datasets.Dataset) error) error {
	names := datasets.Names()
	if o.dataset != "all" {
		names = []string{o.dataset}
	}
	for _, name := range names {
		start := time.Now()
		ds, err := datasets.ByName(name, o.seed)
		if err != nil {
			return err
		}
		fmt.Printf("# dataset %s: k=%d n=%d tau=%d (generated in %v)\n",
			ds.Name, ds.K, ds.N(), ds.Tau(), time.Since(start).Round(time.Millisecond))
		if err := f(o, ds); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figures and tables.

func fig1(o options) error {
	fmt.Println("\n== Fig. 1: optimal g (Eq. 6) by eps_inf and alpha ==")
	pts := analysis.Fig1(o.eps, o.alphas)
	tbl := report.NewTable(append([]string{"alpha \\ eps_inf"}, floatHeaders(o.eps)...)...)
	var csv [][]string
	for _, a := range o.alphas {
		row := []any{fmt.Sprintf("%.1f", a)}
		for _, p := range pts {
			if p.Alpha == a {
				row = append(row, p.OptimalG)
				csv = append(csv, []string{
					fmt.Sprintf("%g", a), fmt.Sprintf("%g", p.EpsInf), strconv.Itoa(p.OptimalG)})
			}
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return writeCSV(o, "fig1.csv", []string{"alpha", "eps_inf", "optimal_g"}, csv)
}

func fig2(o options) error {
	fmt.Printf("\n== Fig. 2: approximate variance V* (Eq. 5), n=%d ==\n", o.n)
	pts, err := analysis.Fig2(o.n, o.eps, o.alphas)
	if err != nil {
		return err
	}
	var csv [][]string
	for _, a := range o.alphas {
		fmt.Printf("\n-- eps1 = %.1f * eps_inf --\n", a)
		tbl := report.NewTable(append([]string{"protocol"}, floatHeaders(o.eps)...)...)
		for _, proto := range analysis.Fig2Protocols {
			row := []any{proto}
			for _, p := range pts {
				if p.Protocol == proto && p.Alpha == a {
					row = append(row, p.VStar)
					csv = append(csv, []string{proto,
						fmt.Sprintf("%g", a), fmt.Sprintf("%g", p.EpsInf),
						strconv.FormatFloat(p.VStar, 'e', 6, 64)})
				}
			}
			tbl.AddRow(row...)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
	}
	return writeCSV(o, "fig2.csv", []string{"protocol", "alpha", "eps_inf", "v_star"}, csv)
}

func fig3(o options, ds *datasets.Dataset) error {
	fmt.Printf("\n== Fig. 3 (%s): MSE_avg (Eq. 7), runs=%d ==\n", ds.Name, o.runs)
	specs, err := specsFor(o, ds)
	if err != nil {
		return err
	}
	// The paper omits dBitFlipPM from the MSE plots when b < k (bucket
	// histograms are not comparable to k-bin ones). An explicit -proto or
	// -spec selection is honored as given.
	if o.proto == "" && o.specFile == "" && (ds.Name == "db_mt" || ds.Name == "db_de") {
		var kept []simulation.Spec
		for _, s := range specs {
			if !strings.Contains(s.Name, "BitFlipPM") {
				kept = append(kept, s)
			}
		}
		specs = kept
		fmt.Println("(dBitFlipPM omitted: b = k/4 estimates a different histogram)")
	}
	pts, err := simulation.RunMSE(ds, specs, gridConfig(o))
	if err != nil {
		return err
	}
	printPoints(pts, o, "mse_avg")
	return writePointsCSV(o, fmt.Sprintf("fig3_%s.csv", ds.Name), pts, "mse_avg")
}

func fig4(o options, ds *datasets.Dataset) error {
	fmt.Printf("\n== Fig. 4 (%s): averaged longitudinal privacy loss (Eq. 8), runs=%d ==\n",
		ds.Name, o.runs)
	specs, err := specsFor(o, ds)
	if err != nil {
		return err
	}
	pts, err := simulation.RunPrivacyLoss(ds, specs, gridConfig(o))
	if err != nil {
		return err
	}
	printPoints(pts, o, "eps_avg")
	return writePointsCSV(o, fmt.Sprintf("fig4_%s.csv", ds.Name), pts, "eps_avg")
}

func table1(o options) error {
	fmt.Println("\n== Table 1: theoretical comparison (k=360, g=4, b=90, d=4 example) ==")
	rows := analysis.Table1(360, 4, 90, 4)
	tbl := report.NewTable("protocol", "comm bits/step", "(formula)", "server time", "budget / eps_inf", "(formula)")
	var csv [][]string
	for _, r := range rows {
		tbl.AddRow(r.Protocol, r.CommBits, r.CommFormula, r.ServerTime, r.BudgetUnits, r.BudgetFormula)
		csv = append(csv, []string{r.Protocol, strconv.Itoa(r.CommBits), r.CommFormula,
			r.ServerTime, strconv.Itoa(r.BudgetUnits), r.BudgetFormula})
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return writeCSV(o, "table1.csv",
		[]string{"protocol", "comm_bits", "comm_formula", "server_time", "budget_units", "budget_formula"}, csv)
}

func table2(o options, ds *datasets.Dataset) error {
	fmt.Printf("\n== Table 2 (%s): %% users with all bucket changes detected (dBitFlipPM) ==\n", ds.Name)
	b := ds.K
	if ds.Name == "db_mt" || ds.Name == "db_de" {
		b = ds.K / 4
	}
	cfg := gridConfig(o)
	cfg.Alphas = []float64{0.5} // unused by dBitFlipPM
	pts, err := simulation.RunDetection(ds, b, []int{1, b}, cfg)
	if err != nil {
		return err
	}
	tbl := report.NewTable("eps_inf", "d=1", fmt.Sprintf("d=b (%d)", b))
	var csv [][]string
	for _, e := range o.eps {
		row := []any{fmt.Sprintf("%.1f", e)}
		for _, p := range pts {
			if p.EpsInf == e {
				row = append(row, fmt.Sprintf("%.4f%%", p.Mean*100))
				csv = append(csv, []string{ds.Name, fmt.Sprintf("%g", e), p.Protocol,
					strconv.FormatFloat(p.Mean, 'f', 6, 64)})
			}
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return writeCSV(o, fmt.Sprintf("table2_%s.csv", ds.Name),
		[]string{"dataset", "eps_inf", "d", "fully_detected_rate"}, csv)
}

func ablation(o options) error {
	fmt.Printf("\n== Ablation: paper vs exact IRR calibration (V*, n=%d) ==\n", o.n)
	fmt.Println("(the paper's Algorithm 1 εIRR is tight for g=2, conservative for g>2;")
	fmt.Println(" the exact g-ary calibration recovers the slack at identical ε1)")
	tbl := report.NewTable("eps_inf", "alpha", "g", "V* paper", "V* exact", "improvement")
	var csv [][]string
	for _, e := range o.eps {
		for _, a := range o.alphas {
			eps1 := a * e
			for _, g := range []int{2, 4, 8, 16} {
				vPaper, err := analysis.VStarLOLOHA(e, eps1, g, o.n)
				if err != nil {
					continue
				}
				vExact, err := analysis.VStarLOLOHAExactIRR(e, eps1, g, o.n)
				if err != nil {
					continue
				}
				imp := 1 - vExact/vPaper
				tbl.AddRow(fmt.Sprintf("%.1f", e), fmt.Sprintf("%.1f", a), g,
					vPaper, vExact, fmt.Sprintf("%.2f%%", imp*100))
				csv = append(csv, []string{
					fmt.Sprintf("%g", e), fmt.Sprintf("%g", a), strconv.Itoa(g),
					strconv.FormatFloat(vPaper, 'e', 6, 64),
					strconv.FormatFloat(vExact, 'e', 6, 64),
					strconv.FormatFloat(imp, 'f', 6, 64),
				})
			}
		}
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return writeCSV(o, "ablation_irr.csv",
		[]string{"eps_inf", "alpha", "g", "v_paper", "v_exact", "improvement"}, csv)
}

// ---------------------------------------------------------------------------
// Output plumbing.

func gridConfig(o options) simulation.Config {
	return simulation.Config{
		EpsInfs: o.eps,
		Alphas:  o.alphas,
		Runs:    o.runs,
		Seed:    o.seed,
		Workers: o.workers,
		Shards:  o.shards,
	}
}

func printPoints(pts []simulation.Point, o options, metric string) {
	for _, a := range o.alphas {
		fmt.Printf("\n-- eps1 = %.1f * eps_inf (%s) --\n", a, metric)
		tbl := report.NewTable(append([]string{"protocol"}, floatHeaders(o.eps)...)...)
		protos := orderedProtocols(pts)
		for _, proto := range protos {
			row := []any{proto}
			for _, e := range o.eps {
				cell := "-"
				for _, p := range pts {
					if p.Protocol == proto && p.Alpha == a && p.EpsInf == e {
						if p.Err != nil {
							cell = "err"
						} else {
							cell = report.FormatFloat(p.Mean)
						}
					}
				}
				row = append(row, cell)
			}
			tbl.AddRow(row...)
		}
		tbl.Render(os.Stdout)
	}
}

func orderedProtocols(pts []simulation.Point) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range pts {
		if !seen[p.Protocol] {
			seen[p.Protocol] = true
			out = append(out, p.Protocol)
		}
	}
	return out
}

func writePointsCSV(o options, name string, pts []simulation.Point, metric string) error {
	var rows [][]string
	for _, p := range pts {
		if p.Err != nil {
			continue
		}
		rows = append(rows, []string{
			p.Dataset, p.Protocol,
			fmt.Sprintf("%g", p.EpsInf), fmt.Sprintf("%g", p.Alpha),
			strconv.FormatFloat(p.Mean, 'e', 6, 64),
			strconv.FormatFloat(p.Std, 'e', 6, 64),
			strconv.Itoa(p.Runs),
		})
	}
	return writeCSV(o, name,
		[]string{"dataset", "protocol", "eps_inf", "alpha", metric, "std", "runs"}, rows)
}

func writeCSV(o options, name string, header []string, rows [][]string) error {
	if o.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.csvDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteCSV(f, header, rows); err != nil {
		return err
	}
	fmt.Printf("(csv written to %s)\n", filepath.Join(o.csvDir, name))
	return nil
}

func floatHeaders(fs []float64) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return out
}
