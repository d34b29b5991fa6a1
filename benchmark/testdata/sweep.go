package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"ppatc/internal/core"
	"ppatc/internal/dse"
)

// sweepParams sizes the sweep-mc spec; the defaults are the only sizes
// golden.json covers.
type sweepParams struct {
	samples int
}

var sweepDefaults = sweepParams{samples: 200}

// sweepTailPct is sweep-mc's tail percentile: a 20 s run holds about 22
// iterations, which support no percentile above the median.
const sweepTailPct = 50

// sweepSpec is the Monte Carlo design-space sweep: 2 systems × 2 kernels
// × 8 fab intensities × 2 clocks × 3 lifetimes × the replicas of the
// M3D yield and CI_use scale draws. The 38,400 default points share 64
// pipeline tuples and 2 eDRAM macros.
func sweepSpec(seed int64, p sweepParams) *dse.Spec {
	return &dse.Spec{
		Name:    "sweep-mc",
		Seed:    seed,
		Samples: p.samples,
		Axes: dse.Axes{
			System:         []string{"si", "m3d"},
			Workload:       []string{"huff", "crc32"},
			Grid:           &dse.GridAxis{Intensity: &dse.NumericAxis{Logspace: &dse.Range{Lo: 20, Hi: 1000, N: 8}}},
			ClockMHz:       &dse.NumericAxis{Values: []float64{400, 500}},
			LifetimeMonths: &dse.NumericAxis{Values: []float64{12, 24, 36}},
			M3DYield:       &dse.NumericAxis{Dist: &dse.DistSpec{Kind: "uniform", Lo: 0.5, Hi: 0.95}},
			CIUseScale:     &dse.NumericAxis{Dist: &dse.DistSpec{Kind: "loguniform", Lo: 0.5, Hi: 2}},
		},
	}
}

// sweepSetup reads and validates the spec, as `ppatc sweep -spec` and
// the daemon do with a submitted spec file.
func sweepSetup(seed int64, p sweepParams) (*dse.Spec, error) {
	b, err := json.Marshal(sweepSpec(seed, p))
	if err != nil {
		return nil, err
	}
	return dse.ParseSpec(bytes.NewReader(b))
}

// sweepOutput is one sweep-mc iteration's outputs.
type sweepOutput struct {
	ndjson   []byte
	points   int
	frontier int
	stats    map[string]core.MemoStageStats
}

// sweepOnce expands, runs (through a fresh stage memo), encodes and
// analyzes the spec, one span per dse call.
func sweepOnce(ctx context.Context, tr *tracer, trace uint64, spec *dse.Spec, buf *bytes.Buffer) (sweepOutput, error) {
	var out sweepOutput
	root := tr.begin(trace, 0, "iteration")
	defer root.end()
	sp := tr.begin(trace, root.id(), "dse.expand")
	plan, err := dse.Expand(spec)
	sp.end()
	if err != nil {
		return out, err
	}
	memo := core.NewMemo()
	sp = tr.begin(trace, root.id(), "dse.run")
	results, err := dse.RunPlan(ctx, plan, dse.Options{Memo: memo})
	sp.end()
	if err != nil {
		return out, err
	}
	buf.Reset()
	sp = tr.begin(trace, root.id(), "dse.encode")
	err = dse.WriteNDJSON(buf, results)
	sp.end()
	if err != nil {
		return out, err
	}
	sp = tr.begin(trace, root.id(), "dse.analyze")
	front, err := dse.Frontier(results, plan.Spec.Objectives)
	sp.end()
	if err != nil {
		return out, err
	}
	for i := range results {
		if !results[i].Feasible {
			return out, fmt.Errorf("sweep-mc: point %d infeasible: %s", i, results[i].Error)
		}
	}
	return sweepOutput{ndjson: buf.Bytes(), points: len(plan.Points), frontier: len(front), stats: memo.Stats()}, nil
}

// runSweepMC is the design-space-exploration user: one caller running
// the same Monte Carlo sweep back to back, each with a fresh memo. Every
// iteration's NDJSON must match golden.json (seeds it covers) and the
// run's first iteration.
func runSweepMC(cfg runConfig, p sweepParams) (*result, error) {
	r := newResult()
	ctx := context.Background()
	var buf bytes.Buffer
	// Set-up is the time to a first sweep: the spec read and validated,
	// then one untimed iteration.
	spec, err := timeSetup(r, func() (*dse.Spec, error) {
		spec, err := sweepSetup(cfg.seed, p)
		if err != nil {
			return nil, err
		}
		_, err = sweepOnce(ctx, nil, 0, spec, &buf)
		return spec, err
	}, nil)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	want := ""
	if p == sweepDefaults {
		want = cfg.golden.Sweep[strconv.FormatInt(cfg.seed, 10)]
	}
	checkName := fmt.Sprintf("sweep-mc ndjson seed %d", cfg.seed)
	var (
		first  string
		points int
		memo   = make(map[string]core.MemoStageStats)
	)
	n := runClosed(r, cfg.seconds, cfg.trace, sweepTailPct, func(i int, traced bool) (time.Duration, error) {
		var t *tracer
		if traced {
			t = tr
		}
		opStart := time.Now()
		out, err := sweepOnce(ctx, t, uint64(i+1), spec, &buf)
		d := time.Since(opStart)
		if err != nil {
			return d, err
		}
		got := digest(out.ndjson)
		if first == "" {
			first = got
		}
		if !r.check(checkName, got, want) || got != first || out.frontier == 0 {
			return d, fmt.Errorf("sweep-mc: iteration %d output differs", i)
		}
		points = out.points
		if traced {
			for stage, s := range out.stats {
				m := memo[stage]
				m.Hits += s.Hits
				m.Misses += s.Misses
				memo[stage] = m
			}
		}
		return d, nil
	})
	if tr == nil {
		return r, nil
	}
	r.spans = tr.recorded()
	self := selfTimes(r.spans)
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(n) }
	r.set("dse.expand_ms", perOp(self["dse.expand"]), n)
	r.set("dse.run_ms", perOp(self["dse.run"]), n)
	r.set("dse.encode_ms", perOp(self["dse.encode"]), n)
	r.set("dse.analyze_ms", perOp(self["dse.analyze"]), n)
	r.set("dse.points", float64(points), n)
	for _, stage := range core.Stages() {
		r.set("core.memo."+stage+".hits", float64(memo[stage].Hits)/float64(n), n)
		r.set("core.memo."+stage+".misses", float64(memo[stage].Misses)/float64(n), n)
	}
	return r, nil
}
