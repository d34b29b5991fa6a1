package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTrace("test-run")
	ctx := WithTrace(context.Background(), tr)

	rctx, root := StartSpan(ctx, "evaluate")
	if root == nil {
		t.Fatal("StartSpan returned nil span with a trace installed")
	}
	root.SetStr("system", "all-Si")
	_, child := StartSpan(rctx, "embench")
	child.SetFloat("cycles", 42)
	child.End()
	cctx, child2 := StartSpan(rctx, "edram")
	_, grand := StartSpan(cctx, "spice")
	grand.End()
	child2.End()
	root.End()

	tree := tr.Tree()
	if len(tree) != 1 || tree[0].Name != "evaluate" {
		t.Fatalf("want one root 'evaluate', got %+v", tree)
	}
	kids := tree[0].Children
	if len(kids) != 2 || kids[0].Name != "embench" || kids[1].Name != "edram" {
		t.Fatalf("want children [embench edram], got %+v", kids)
	}
	if len(kids[1].Children) != 1 || kids[1].Children[0].Name != "spice" {
		t.Fatalf("want grandchild spice, got %+v", kids[1].Children)
	}
	if len(tree[0].Attrs) != 1 || tree[0].Attrs[0].Key != "system" || tree[0].Attrs[0].Str != "all-Si" {
		t.Errorf("root attrs wrong: %+v", tree[0].Attrs)
	}
	if a := kids[0].Attrs; len(a) != 1 || !a[0].IsNum || a[0].Num != 42 {
		t.Errorf("child attrs wrong: %+v", kids[0].Attrs)
	}
}

func TestDisabledTracerIsNoOp(t *testing.T) {
	ctx := context.Background()
	octx, sp := StartSpan(ctx, "evaluate")
	if sp != nil {
		t.Fatal("StartSpan must return a nil span without a trace")
	}
	if octx != ctx {
		t.Fatal("StartSpan must return the context unchanged without a trace")
	}
	// All span methods must be safe on nil.
	sp.SetStr("k", "v")
	sp.SetFloat("k", 1)
	sp.End()
	if TraceFrom(ctx) != nil || Enabled(ctx) {
		t.Fatal("background context must not carry a trace")
	}
}

// TestDisabledPathAllocates0 is the hard guard behind the PR's
// no-allocation contract: the instrumentation calls EvaluateContext makes
// (span start/annotate/end, provenance record) must not allocate when
// tracing and provenance are disabled.
func TestDisabledPathAllocates0(t *testing.T) {
	ctx := context.Background()
	var prov *Provenance // disabled collector, as in core.EvaluateContext
	allocs := testing.AllocsPerRun(200, func() {
		c, sp := StartSpan(ctx, "evaluate")
		sp.SetStr("system", "all-Si")
		sp.SetFloat("cycles", 1)
		prov.Record("embench", "cycles", 1, "cycles")
		if ProvenanceEnabled(c) {
			t.Error("provenance must not be enabled")
		}
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkDisabledTracerOverhead benchmarks the same disabled path; CI's
// bench smoke keeps it from rotting, and -benchmem shows 0 allocs/op.
func BenchmarkDisabledTracerOverhead(b *testing.B) {
	ctx := context.Background()
	var prov *Provenance
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "evaluate")
		sp.SetFloat("cycles", float64(i))
		prov.Record("embench", "cycles", float64(i), "cycles")
		sp.End()
	}
}

// BenchmarkEnabledSpan prices the enabled path for comparison.
func BenchmarkEnabledSpan(b *testing.B) {
	ctx := WithTrace(context.Background(), NewTrace(""))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "stage")
		sp.End()
	}
}

func TestConcurrentTracesDoNotInterleave(t *testing.T) {
	const workers = 8
	traces := make([]*Trace, workers)
	var wg sync.WaitGroup
	for i := range traces {
		traces[i] = NewTrace("")
		wg.Add(1)
		go func(tr *Trace, name string) {
			defer wg.Done()
			ctx := WithTrace(context.Background(), tr)
			for j := 0; j < 50; j++ {
				rctx, root := StartSpan(ctx, name)
				_, child := StartSpan(rctx, name+"-child")
				child.End()
				root.End()
			}
		}(traces[i], string(rune('a'+i)))
	}
	wg.Wait()
	for i, tr := range traces {
		want := string(rune('a' + i))
		tree := tr.Tree()
		if len(tree) != 50 {
			t.Errorf("trace %d: %d roots, want 50", i, len(tree))
		}
		for _, n := range tree {
			if n.Name != want {
				t.Errorf("trace %d: foreign span %q interleaved", i, n.Name)
			}
			if len(n.Children) != 1 || n.Children[0].Name != want+"-child" {
				t.Errorf("trace %d: children wrong: %+v", i, n.Children)
			}
		}
	}
}

func TestSharedTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("")
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, sp := StartSpan(ctx, "root")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Tree()); got != 800 {
		t.Errorf("got %d roots, want 800", got)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTrace("rt")
	ctx := WithTrace(context.Background(), tr)
	rctx, root := StartSpan(ctx, "evaluate")
	root.SetStr("system", "m3d")
	_, s1 := StartSpan(rctx, "embench")
	time.Sleep(time.Millisecond)
	s1.SetFloat("cycles", 123)
	s1.End()
	_, s2 := StartSpan(rctx, "carbon")
	s2.End()
	root.End()

	want := tr.ChromeEvents()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ParseChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip length %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Name != w.Name || g.Phase != w.Phase || g.TsUS != w.TsUS || g.DurUS != w.DurUS || g.PID != w.PID || g.TID != w.TID {
			t.Errorf("event %d differs: got %+v want %+v", i, g, w)
		}
		if len(g.Args) != len(w.Args) {
			t.Errorf("event %d args differ: got %v want %v", i, g.Args, w.Args)
		}
		for k, v := range w.Args {
			if g.Args[k] != v {
				t.Errorf("event %d arg %q: got %q want %q", i, k, g.Args[k], v)
			}
		}
	}
	// The embench span slept ≥1ms; its exported duration must say so.
	if got[1].Name != "embench" || got[1].DurUS < 900 {
		t.Errorf("embench duration %dµs, want >= 900", got[1].DurUS)
	}
	// Parsing garbage must fail loudly.
	if _, err := ParseChromeTrace(strings.NewReader(`[{"name":"x","ph":"B","ts":0,"dur":0,"pid":1,"tid":1}]`)); err == nil {
		t.Error("ParseChromeTrace accepted an unsupported phase")
	}
}

func TestNewIDFormat(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("IDs %q %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("consecutive IDs collide: %q", a)
	}
}
