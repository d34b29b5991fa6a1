package dse

import (
	"context"
	"testing"

	"ppatc/internal/core"
)

// TestWarmEvaluatorAllocs pins a cache-hit point's allocations: once its
// tuple is evaluated and its CI_use scale resolved, a point allocates
// nothing — no formatted cache key, no discarded cache entry, no
// scenario rebuilt and no scaled profile boxed per point.
func TestWarmEvaluatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	plan, err := Expand(mcSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	ev := newEvaluator(plan.UseGrid, core.NewMemo())
	ctx := context.Background()
	for i := range plan.Points {
		p := &plan.Points[i]
		ev.resolve(p)
		if r := ev.evaluate(ctx, p); !r.Feasible {
			t.Fatalf("point %d: %s", p.Index, r.Error)
		}
	}
	for _, tc := range []struct {
		name  string
		scale float64
		want  float64
	}{
		{"unscaled CI_use", 1, 0},
		{"scaled CI_use", 1.7, 0},
	} {
		p := plan.Points[0]
		p.CIUseScale = tc.scale
		ev.resolve(&p)
		got := testing.AllocsPerRun(100, func() { ev.evaluate(ctx, &p) })
		t.Logf("%s: %.0f allocations per warm point", tc.name, got)
		if got > tc.want {
			t.Errorf("%s: %.0f allocations per warm point, want ≤ %.0f", tc.name, got, tc.want)
		}
	}
}
