package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("demo_total", "A counter.")
	cv := reg.CounterVec("demo_by_kind_total", "A labeled counter.", "kind")
	reg.GaugeFunc("demo_depth", "A gauge.", func() float64 { return 2.5 })
	hv := reg.HistogramVec("demo_seconds", "A histogram.", "op", []float64{0.001, 0.01})

	c.Add(3)
	cv.With("b").Add(1)
	cv.With("a").Add(2)
	hv.With("eval").Observe(5 * time.Millisecond)
	hv.With("eval").Observe(500 * time.Microsecond)
	hv.With("hit").Observe(1500 * time.Nanosecond)
	hv.With("hit").Observe(1500 * time.Nanosecond)

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP demo_total A counter.",
		"# TYPE demo_total counter",
		"demo_total 3",
		`demo_by_kind_total{kind="a"} 2`,
		`demo_by_kind_total{kind="b"} 1`,
		"# TYPE demo_depth gauge",
		"demo_depth 2.5",
		"# TYPE demo_seconds histogram",
		`demo_seconds_bucket{op="eval",le="0.001"} 1`,
		`demo_seconds_bucket{op="eval",le="0.01"} 2`,
		`demo_seconds_bucket{op="eval",le="+Inf"} 2`,
		`demo_seconds_sum{op="eval"} 0.0055`,
		`demo_seconds_count{op="eval"} 2`,
		// Sub-microsecond remainders must reach _sum, not truncate away.
		`demo_seconds_sum{op="hit"} 3e-06`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Labels must render sorted: a before b.
	if strings.Index(out, `kind="a"`) > strings.Index(out, `kind="b"`) {
		t.Error("labeled samples not sorted by label value")
	}
}

func TestRegistryRejectsShapeMismatch(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "A counter.")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x_total as a histogram must panic")
		}
	}()
	reg.HistogramVec("x_total", "Not a counter.", "op", nil)
}

func TestHistogramCount(t *testing.T) {
	reg := NewRegistry()
	hv := reg.HistogramVec("h_seconds", "h", "k", nil)
	if got := hv.With("a").Count(); got != 0 {
		t.Fatalf("fresh histogram count %d, want 0", got)
	}
	hv.With("a").Observe(time.Millisecond)
	hv.With("a").Observe(time.Second)
	if got := hv.With("a").Count(); got != 2 {
		t.Fatalf("count %d, want 2", got)
	}
	if got := hv.With("other").Count(); got != 0 {
		t.Fatalf("sibling label leaked observations: %d", got)
	}
}
