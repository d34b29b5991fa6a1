package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The metrics half of the package: a small Prometheus-text-format
// registry shared by every serving surface (the daemon today; any future
// backend the same way), so instruments are declared once and rendered
// uniformly. Supports counters, function gauges, and fixed-bucket latency
// histograms, each either plain or with a single label dimension —
// histograms can also carry two (e.g. endpoint × cache disposition).

// DefaultLatencyBuckets are histogram upper bounds in seconds spanning
// sub-millisecond cache hits to multi-second suite evaluations.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load reads the counter.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram is a fixed-bucket latency histogram with lock-free
// observation. Bucket counts are stored per-bucket and cumulated at
// render time, the way Prometheus expects `le` buckets.
type Histogram struct {
	buckets  []float64
	counts   []atomic.Int64 // one per bucket; overflow lives in count-sum
	count    atomic.Int64
	sumNanos atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets))}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	for i, ub := range h.buckets {
		if s <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumNanos.Add(d.Nanoseconds())
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindHistogram2
)

// family is one named metric with up to two label dimensions.
type family struct {
	name, help string
	kind       metricKind
	label      string // first label key; "" when unlabeled
	label2     string // second label key (kindHistogram2 only)

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	// hists2 nests the second label under the first, so two-label
	// lookups never build a concatenated key (keeps the hot path
	// allocation-free).
	hists2  map[string]map[string]*Histogram
	buckets []float64
	gauge   func() float64
}

func (f *family) labelValues() []string {
	vals := make([]string, 0, len(f.counters)+len(f.hists))
	for v := range f.counters {
		vals = append(vals, v)
	}
	for v := range f.hists {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for a label value, creating it on first use.
func (v *CounterVec) With(label string) *Counter {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.counters[label]
	if !ok {
		c = &Counter{}
		v.f.counters[label] = c
	}
	return c
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for a label value, creating it on first use.
func (v *HistogramVec) With(label string) *Histogram {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	h, ok := v.f.hists[label]
	if !ok {
		h = newHistogram(v.f.buckets)
		v.f.hists[label] = h
	}
	return h
}

// HistogramVec2 is a histogram family with two label dimensions
// (e.g. endpoint × cache disposition).
type HistogramVec2 struct{ f *family }

// With returns the histogram for a label-value pair, creating it on
// first use. Steady-state lookups are allocation-free.
//
//ppatc:hotpath
func (v *HistogramVec2) With(v1, v2 string) *Histogram {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	inner, ok := v.f.hists2[v1]
	if !ok {
		inner = make(map[string]*Histogram)
		v.f.hists2[v1] = inner
	}
	h, ok := inner[v2]
	if !ok {
		h = newHistogram(v.f.buckets)
		inner[v2] = h
	}
	return h
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. Register instruments up front (registration takes a
// lock); observation is lock-free for counters and histograms.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind metricKind, label, label2 string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || f.label != label || f.label2 != label2 {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, label: label, label2: label2,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		hists2:   make(map[string]map[string]*Histogram),
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, "", "")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[""]
	if !ok {
		c = &Counter{}
		f.counters[""] = c
	}
	return c
}

// CounterVec registers (or returns) a counter family labeled by key.
func (r *Registry) CounterVec(name, help, key string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, key, "")}
}

// GaugeFunc registers a gauge whose value is read at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, "", "")
	f.mu.Lock()
	f.gauge = fn
	f.mu.Unlock()
}

// HistogramVec registers (or returns) a histogram family labeled by key,
// with the given bucket bounds (DefaultLatencyBuckets when nil).
func (r *Registry) HistogramVec(name, help, key string, buckets []float64) *HistogramVec {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	f := r.register(name, help, kindHistogram, key, "")
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = buckets
	}
	f.mu.Unlock()
	return &HistogramVec{f: f}
}

// HistogramVec2 registers (or returns) a histogram family with two
// label dimensions, with the given bucket bounds (DefaultLatencyBuckets
// when nil).
func (r *Registry) HistogramVec2(name, help, key1, key2 string, buckets []float64) *HistogramVec2 {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	f := r.register(name, help, kindHistogram2, key1, key2)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = buckets
	}
	f.mu.Unlock()
	return &HistogramVec2{f: f}
}

// WriteTo renders every registered family, in registration order, in
// Prometheus text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var n int64
	p := func(format string, args ...any) error {
		c, err := fmt.Fprintf(w, format, args...)
		n += int64(c)
		return err
	}

	for _, f := range families {
		typ := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram", kindHistogram2: "histogram"}[f.kind]
		if err := p("# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ); err != nil {
			return n, err
		}
		f.mu.Lock()
		switch f.kind {
		case kindCounter:
			for _, lv := range f.labelValues() {
				c := f.counters[lv]
				var err error
				if f.label == "" {
					err = p("%s %d\n", f.name, c.Load())
				} else {
					err = p("%s{%s=%q} %d\n", f.name, f.label, lv, c.Load())
				}
				if err != nil {
					f.mu.Unlock()
					return n, err
				}
			}
		case kindGauge:
			v := 0.0
			if f.gauge != nil {
				v = f.gauge()
			}
			if err := p("%s %g\n", f.name, v); err != nil {
				f.mu.Unlock()
				return n, err
			}
		case kindHistogram:
			for _, lv := range f.labelValues() {
				h := f.hists[lv]
				label := ""
				if f.label != "" {
					label = fmt.Sprintf("%s=%q,", f.label, lv)
				}
				var cum int64
				for i, ub := range h.buckets {
					cum += h.counts[i].Load()
					if err := p("%s_bucket{%sle=%q} %d\n", f.name, label, fmt.Sprintf("%g", ub), cum); err != nil {
						f.mu.Unlock()
						return n, err
					}
				}
				if err := p("%s_bucket{%sle=\"+Inf\"} %d\n", f.name, label, h.count.Load()); err != nil {
					f.mu.Unlock()
					return n, err
				}
				suffix := ""
				if f.label != "" {
					suffix = fmt.Sprintf("{%s=%q}", f.label, lv)
				}
				if err := p("%s_sum%s %g\n", f.name, suffix, float64(h.sumNanos.Load())/1e9); err != nil {
					f.mu.Unlock()
					return n, err
				}
				if err := p("%s_count%s %d\n", f.name, suffix, h.count.Load()); err != nil {
					f.mu.Unlock()
					return n, err
				}
			}
		case kindHistogram2:
			outer := make([]string, 0, len(f.hists2))
			for v1 := range f.hists2 {
				outer = append(outer, v1)
			}
			sort.Strings(outer)
			for _, v1 := range outer {
				inner := make([]string, 0, len(f.hists2[v1]))
				for v2 := range f.hists2[v1] {
					inner = append(inner, v2)
				}
				sort.Strings(inner)
				for _, v2 := range inner {
					h := f.hists2[v1][v2]
					label := fmt.Sprintf("%s=%q,%s=%q", f.label, v1, f.label2, v2)
					var cum int64
					for i, ub := range h.buckets {
						cum += h.counts[i].Load()
						if err := p("%s_bucket{%s,le=%q} %d\n", f.name, label, fmt.Sprintf("%g", ub), cum); err != nil {
							f.mu.Unlock()
							return n, err
						}
					}
					if err := p("%s_bucket{%s,le=\"+Inf\"} %d\n", f.name, label, h.count.Load()); err != nil {
						f.mu.Unlock()
						return n, err
					}
					if err := p("%s_sum{%s} %g\n", f.name, label, float64(h.sumNanos.Load())/1e9); err != nil {
						f.mu.Unlock()
						return n, err
					}
					if err := p("%s_count{%s} %d\n", f.name, label, h.count.Load()); err != nil {
						f.mu.Unlock()
						return n, err
					}
				}
			}
		}
		f.mu.Unlock()
	}
	return n, nil
}
