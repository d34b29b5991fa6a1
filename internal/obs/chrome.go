package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeEvent is one entry of the Chrome trace-event format (the JSON
// array flavour loadable by chrome://tracing and Perfetto). Only complete
// ("ph":"X") events are emitted: one per span, with ts/dur in integer
// microseconds relative to the trace start.
type ChromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TsUS  int64             `json:"ts"`
	DurUS int64             `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// ChromeEvents flattens the trace into complete events, depth first, so
// the viewer reconstructs nesting from timestamp containment.
func (t *Trace) ChromeEvents() []ChromeEvent {
	var out []ChromeEvent
	t.mu.Lock()
	defer t.mu.Unlock()
	var rec func([]*Span)
	rec = func(spans []*Span) {
		for _, s := range spans {
			ev := ChromeEvent{
				Name:  s.name,
				Phase: "X",
				TsUS:  s.start.Sub(t.start).Microseconds(),
				DurUS: s.dur.Microseconds(),
				PID:   1,
				TID:   1,
			}
			if len(s.attrs) > 0 {
				ev.Args = make(map[string]string, len(s.attrs))
				for _, a := range s.attrs {
					if a.IsNum {
						ev.Args[a.Key] = fmt.Sprintf("%g", a.Num)
					} else {
						ev.Args[a.Key] = a.Str
					}
				}
			}
			out = append(out, ev)
			rec(s.children)
		}
	}
	rec(t.roots)
	return out
}

// WriteChromeTrace emits the trace as a Chrome trace-event JSON array.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	events := t.ChromeEvents()
	if events == nil {
		events = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}

// ParseChromeTrace reads a Chrome trace-event JSON array back into
// events, validating the phase field. It accepts exactly what
// WriteChromeTrace produces (the round-trip contract the tests pin).
func ParseChromeTrace(r io.Reader) ([]ChromeEvent, error) {
	var events []ChromeEvent
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&events); err != nil {
		return nil, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	for i, ev := range events {
		if ev.Phase != "X" {
			return nil, fmt.Errorf("obs: event %d (%q): unsupported phase %q", i, ev.Name, ev.Phase)
		}
		if ev.DurUS < 0 || ev.TsUS < 0 {
			return nil, fmt.Errorf("obs: event %d (%q): negative timestamp", i, ev.Name)
		}
	}
	return events, nil
}
