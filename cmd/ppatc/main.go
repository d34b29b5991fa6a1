// Command ppatc regenerates every table and figure of the paper from the
// reproduction library. Usage:
//
//	ppatc <experiment> [flags]
//
// Experiments:
//
//	fig2c    embodied carbon per wafer across grids (Fig. 2c)
//	fig2d    Eq. 4 step-energy matrix (Fig. 2d)
//	table1   FET IEFF/IOFF comparison backing Table I
//	table2   full PPAtC evaluation (Table II)
//	fig4     M0 energy/cycle vs clock sweep (Fig. 4)
//	fig5     tC and tCDP vs lifetime (Fig. 5)
//	fig6a    tCDP benefit map and isoline (Fig. 6a)
//	fig6b    isoline uncertainty variants (Fig. 6b)
//	suite    full pipeline over every bundled workload
//	score    Embench-style reference cycles and relative score
//	gases    per-gas GWP-100 inventory behind the GPA term
//	diecount die-per-wafer estimates for both designs
//	wafermap ASCII wafer map (dies magnified)
//	montecarlo sampled robustness of the tCDP verdict
//	sweep    design-space sweep from a JSON spec (-spec, -p, -store-dir)
//	report   everything, in order (-markdown for a markdown artifact)
//
// Observability flags: -trace <file> writes a Chrome trace-event file
// (load in chrome://tracing or Perfetto) of the pipeline stages behind
// the experiment; -provenance prints, after table2, every intermediate
// quantity each stage produced (cycles, EPA, yield, ...) so the final
// numbers can be audited back to their inputs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ppatc/internal/carbon"
	"ppatc/internal/core"
	"ppatc/internal/embench"
	"ppatc/internal/obs"
	"ppatc/internal/process"
	"ppatc/internal/tcdp"
	"ppatc/internal/units"
	"ppatc/internal/wafer"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ppatc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ppatc", flag.ContinueOnError)
	gridName := fs.String("grid", "US", "energy grid: US, Coal, Solar, Taiwan")
	workload := fs.String("workload", "matmult-int", "workload name, or 'all'")
	months := fs.Int("months", 24, "system lifetime in months for fig5/fig6")
	markdown := fs.Bool("markdown", false, "for report: emit a self-contained markdown artifact")
	asJSON := fs.Bool("json", false, "for table2/suite: emit machine-readable JSON")
	asCSV := fs.Bool("csv", false, "for fig5: emit the series as CSV")
	traceFile := fs.String("trace", "", "write a Chrome trace-event file (chrome://tracing) of the pipeline stages")
	provenance := fs.Bool("provenance", false, "for table2: print each stage's intermediate quantities after the table")
	specPath := fs.String("spec", "", "for sweep: JSON sweep spec file ('-' reads stdin)")
	parallel := fs.Int("p", 0, "for sweep: worker count (default GOMAXPROCS; any value gives identical results)")
	storeDir := fs.String("store-dir", "", "for sweep: result-store directory — finished points persist there, and interrupted sweeps resume from it")
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing experiment (fig2c fig2d table1 table2 fig4 fig5 fig6a fig6b suite score gases diecount wafermap montecarlo sweep report)")
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	grid, err := carbon.GridByName(*gridName)
	if err != nil {
		return err
	}

	// Observability: -trace installs a tracer on the context driving the
	// evaluation pipeline (the file is written on the way out);
	// -provenance asks evaluations to record their intermediates.
	ctx := context.Background()
	var tr *obs.Trace
	if *traceFile != "" {
		tr = obs.NewTrace("")
		ctx = obs.WithTrace(ctx, tr)
		defer func() {
			f, ferr := os.Create(*traceFile)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "ppatc: trace:", ferr)
				return
			}
			defer f.Close()
			if werr := tr.WriteChromeTrace(f); werr != nil {
				fmt.Fprintln(os.Stderr, "ppatc: trace:", werr)
				return
			}
			fmt.Fprintf(os.Stderr, "ppatc: wrote trace %s (run %s)\n", *traceFile, tr.ID)
		}()
	}
	if *provenance {
		ctx = obs.WithProvenanceEnabled(ctx)
	}

	printProvenance := func(results ...*core.PPAtC) {
		if !*provenance {
			return
		}
		for _, r := range results {
			fmt.Printf("\nprovenance: %s / %s (run inputs → Table II)\n", r.System, r.Workload)
			fmt.Print(obs.FormatFields(r.Provenance))
		}
	}

	// memo serves every pair evaluation of one command: `table2
	// -workload all` then runs each design-only stage once, not once per
	// workload.
	memo := core.NewMemo()
	table2 := func(w embench.Workload) (*core.PPAtC, *core.PPAtC, error) {
		si, m3d, err := memo.EvaluatePairContext(ctx, w, grid)
		if err != nil {
			return nil, nil, err
		}
		fmt.Print(core.FormatTable2(si, m3d))
		printProvenance(si, m3d)
		return si, m3d, nil
	}

	switch cmd {
	case "fig2c":
		out, err := core.Fig2c()
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "fig2d":
		out, err := core.Fig2d()
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "table1":
		fmt.Print(core.Table1())
	case "score":
		out, err := embench.FormatReference()
		if err != nil {
			return err
		}
		fmt.Print(out)
		ref, err := embench.ReferenceCycles()
		if err != nil {
			return err
		}
		sc, err := embench.Score(ref)
		if err != nil {
			return err
		}
		fmt.Printf("Embench-style score of this build vs reference: %.3f\n", sc)
	case "gases":
		out, err := process.FormatInventory(process.ReferenceIN7Inventory())
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "table2":
		ws, err := selectWorkloads(*workload)
		if err != nil {
			return err
		}
		if *asJSON {
			var all []*core.PPAtC
			for _, w := range ws {
				si, m3d, err := memo.EvaluatePairContext(ctx, w, grid)
				if err != nil {
					return err
				}
				all = append(all, si, m3d)
			}
			return core.WriteJSON(os.Stdout, all...)
		}
		for _, w := range ws {
			if _, _, err := table2(w); err != nil {
				return err
			}
			fmt.Println()
		}
	case "fig4":
		out, err := core.Fig4()
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "fig5", "fig6a", "fig6b":
		w, err := embench.ByName(*workload)
		if err != nil {
			return err
		}
		si, m3d, _, err := core.Table2Context(ctx, w, grid)
		if err != nil {
			return err
		}
		if cmd == "fig5" && *asCSV {
			s := tcdp.PaperScenario()
			sa, err := tcdp.Lifetime(si.DesignPoint(), s, *months)
			if err != nil {
				return err
			}
			sb, err := tcdp.Lifetime(m3d.DesignPoint(), s, *months)
			if err != nil {
				return err
			}
			return core.WriteLifetimeCSV(os.Stdout, sa, sb)
		}
		var out string
		switch cmd {
		case "fig5":
			out, err = core.Fig5(si, m3d, *months)
		case "fig6a":
			out, err = core.Fig6a(si, m3d, *months)
		default:
			out, err = core.Fig6b(si, m3d, *months)
		}
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "suite":
		rows, err := core.SuiteContext(ctx, grid)
		if err != nil {
			return err
		}
		if *asJSON {
			return core.WriteSuiteJSON(os.Stdout, rows)
		}
		fmt.Print(core.FormatSuite(rows))
	case "diecount", "wafermap":
		w, err := embench.ByName(*workload)
		if err != nil {
			return err
		}
		si, m3d, err := memo.EvaluatePairContext(ctx, w, grid)
		if err != nil {
			return err
		}
		if cmd == "diecount" {
			return dieCount(si, m3d)
		}
		return waferMap(si, m3d)
	case "montecarlo":
		w, err := embench.ByName(*workload)
		if err != nil {
			return err
		}
		si, m3d, _, err := core.Table2Context(ctx, w, grid)
		if err != nil {
			return err
		}
		res, err := tcdp.MonteCarlo(m3d.DesignPoint(), si.DesignPoint(),
			tcdp.PaperScenario(), tcdp.PaperUncertainty(), 20000, 2025)
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	case "sweep":
		return runSweep(ctx, *specPath, *parallel, *storeDir)
	case "report":
		if *markdown {
			w, err := embench.ByName(*workload)
			if err != nil {
				return err
			}
			return core.WriteMarkdownReport(os.Stdout, w, grid, *months)
		}
		for _, step := range []struct {
			title string
			run   func() (string, error)
		}{
			{"Fig. 2c — embodied carbon per wafer", core.Fig2c},
			{"Fig. 2d — Eq. 4 step-energy matrix", core.Fig2d},
			{"Table I — FET comparison", func() (string, error) { return core.Table1(), nil }},
			{"Fig. 4 — M0 synthesis sweep", core.Fig4},
		} {
			fmt.Printf("== %s ==\n", step.title)
			out, err := step.run()
			if err != nil {
				return err
			}
			fmt.Println(out)
		}
		w, err := embench.ByName(*workload)
		if err != nil {
			return err
		}
		fmt.Println("== Table II — PPAtC summary ==")
		si, m3d, err := table2(w)
		if err != nil {
			return err
		}
		for _, step := range []struct {
			title string
			run   func(a, b *core.PPAtC, m int) (string, error)
		}{
			{"Fig. 5 — tC and tCDP vs lifetime", core.Fig5},
			{"Fig. 6a — tCDP benefit map", core.Fig6a},
			{"Fig. 6b — isoline uncertainty", core.Fig6b},
		} {
			fmt.Printf("\n== %s ==\n", step.title)
			out, err := step.run(si, m3d, *months)
			if err != nil {
				return err
			}
			fmt.Print(out)
		}
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	return nil
}

func selectWorkloads(name string) ([]embench.Workload, error) {
	if name == "all" {
		return embench.Workloads(), nil
	}
	w, err := embench.ByName(name)
	if err != nil {
		return nil, err
	}
	return []embench.Workload{w}, nil
}

// waferMap renders ASCII wafer maps for both designs (at a magnified die
// size so the structure is visible in a terminal).
func waferMap(results ...*core.PPAtC) error {
	for _, res := range results {
		// Magnify the die 40× so individual cells are visible.
		die := wafer.Die{
			Width:   res.DieWidth * 40,
			Height:  res.DieHeight * 40,
			Spacing: units.Millimeters(0.1 * 40),
		}
		m, err := wafer.RenderMap(wafer.Paper300mm(), die, 110)
		if err != nil {
			return err
		}
		fmt.Printf("%s (die magnified 40×; real count %d):\n%s\n", res.System, res.DiesPerWafer, m)
	}
	return nil
}

func dieCount(results ...*core.PPAtC) error {
	spec := wafer.Paper300mm()
	for _, res := range results {
		die := wafer.Die{Width: res.DieWidth, Height: res.DieHeight, Spacing: units.Millimeters(0.1)}
		formula, err := wafer.EstimateFormula(spec, die)
		if err != nil {
			return err
		}
		geo, err := wafer.EstimateGeometric(spec, die)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s die %.0f×%.0f µm: formula %d, geometric %d, yield %.0f%% → %d good\n",
			res.System, die.Width.Micrometers(), die.Height.Micrometers(),
			formula, geo, res.Yield*100, int(float64(geo)*res.Yield))
	}
	return nil
}
