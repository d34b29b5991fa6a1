// Package obs is the zero-dependency observability layer shared by the
// PPAtC library, the ppatc CLI, and the ppatcd daemon. It provides three
// instruments:
//
//   - a context-carried tracer: a run gets a Trace (with an ID), stages
//     open nested Spans with monotonic timings, and the finished tree
//     exports as JSON or Chrome trace-event format (chrome://tracing,
//     Perfetto);
//   - provenance records: the intermediate quantities each pipeline stage
//     produced (cycles, EPA, yield, ...) so any headline number can be
//     audited back to its inputs;
//   - a Prometheus-style metrics Registry (counters, gauges, histograms)
//     shared by every serving surface.
//
// All three are opt-in per context and nil-safe: when a caller has not
// installed a Trace (the default for library users), StartSpan returns a
// nil Span whose methods are no-ops, and the instrumented hot path makes
// no allocations.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// idCounter breaks ties if crypto/rand ever fails; IDs stay unique within
// the process either way.
var idCounter atomic.Uint64

// NewID returns a 16-hex-character random identifier, used for run and
// request IDs.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", idCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// Trace is one run's span collection. A Trace is safe for concurrent use:
// spans opened from different goroutines (each carrying its own derived
// context) attach to the right parents without interleaving.
type Trace struct {
	// ID identifies the run (a request ID in the daemon, a fresh random
	// ID in the CLI).
	ID string

	start time.Time
	mu    sync.Mutex
	roots []*Span
}

// NewTrace starts a trace. An empty id draws a fresh random one.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{ID: id, start: time.Now()}
}

// Attr is one span annotation: a string or numeric value under a key.
// The split fields (instead of an any-typed value) keep the disabled
// tracer path free of interface boxing, hence allocation-free.
type Attr struct {
	Key string  `json:"key"`
	Str string  `json:"str,omitempty"`
	Num float64 `json:"num,omitempty"`
	// IsNum disambiguates Num==0 from an unset number.
	IsNum bool `json:"is_num,omitempty"`
}

// Span is one timed region of a trace. A nil *Span is a valid no-op span:
// every method checks the receiver, so instrumented code never branches
// on whether tracing is enabled.
type Span struct {
	tr     *Trace
	parent *Span

	name  string
	start time.Time
	// dur is set by End; zero means the span never ended.
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

type traceKey struct{}
type spanKey struct{}

// WithTrace installs a trace into the context; spans started from the
// returned context (and its descendants) attach to it.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the context's trace, or nil when tracing is disabled.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Enabled reports whether the context carries a trace.
func Enabled(ctx context.Context) bool { return TraceFrom(ctx) != nil }

// StartSpan opens a span named name under the context's current span (or
// as a root). It returns a derived context carrying the new span — pass
// it to children so their spans nest — and the span itself. When the
// context has no trace, it returns ctx unchanged and a nil span, without
// allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	if tr == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent != nil && parent.tr != tr {
		// A span left over from a previous trace on this context chain
		// must not adopt children of the new trace.
		parent = nil
	}
	s := &Span{tr: tr, parent: parent, name: name, start: time.Now()}
	tr.mu.Lock()
	if parent != nil {
		parent.children = append(parent.children, s)
	} else {
		tr.roots = append(tr.roots, s)
	}
	tr.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, s), s
}

// End closes the span with a monotonic duration. Safe on a nil span and
// idempotent: only the first End sets the duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// SetStr annotates the span with a string value. Safe on a nil span.
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Str: value})
	s.tr.mu.Unlock()
}

// SetFloat annotates the span with a numeric value. Safe on a nil span.
func (s *Span) SetFloat(key string, value float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Num: value, IsNum: true})
	s.tr.mu.Unlock()
}

// SpanNode is the exported (JSON) shape of a span: timings are integer
// microseconds relative to the trace start.
type SpanNode struct {
	Name        string     `json:"name"`
	StartMicros int64      `json:"start_us"`
	DurMicros   int64      `json:"dur_us"`
	Attrs       []Attr     `json:"attrs,omitempty"`
	Children    []SpanNode `json:"children,omitempty"`
}

// Tree snapshots the trace as a span forest. Unfinished spans export with
// a zero duration.
func (t *Trace) Tree() []SpanNode {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exportLocked(t.roots)
}

func (t *Trace) exportLocked(spans []*Span) []SpanNode {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanNode, len(spans))
	for i, s := range spans {
		out[i] = SpanNode{
			Name:        s.name,
			StartMicros: s.start.Sub(t.start).Microseconds(),
			DurMicros:   s.dur.Microseconds(),
			Attrs:       append([]Attr(nil), s.attrs...),
			Children:    t.exportLocked(s.children),
		}
	}
	return out
}
