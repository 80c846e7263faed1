package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultTraceCapacity is the span ring-buffer size used by the CLI
// edges. At one iteration span plus a handful of child spans per
// synthesis iteration, 4096 spans hold hundreds of iterations — an
// entire session — before the ring wraps.
const DefaultTraceCapacity = 4096

// SpanRecord is one completed span: a named, nested, timed event of
// the synthesis loop (solve → distinguish → oracle → edge-insert →
// system-rebuild). Timestamps are microseconds relative to the
// tracer's creation, so traces are diffable across runs and carry no
// wall-clock identity.
type SpanRecord struct {
	// Seq is the span's begin order (1-based). Spans are exported in
	// Seq order; a parent's Seq is always smaller than its children's.
	Seq uint64 `json:"seq"`
	// Name is the event name ("iteration", "solve", "oracle", ...).
	Name string `json:"name"`
	// Depth is the nesting level at Begin time (0 = top level).
	Depth int `json:"depth"`
	// StartMicros is the span start, µs since tracer creation.
	StartMicros int64 `json:"start_us"`
	// DurMicros is the span duration in µs.
	DurMicros int64 `json:"dur_us"`
	// Attrs are optional numeric attributes attached at End (iteration
	// index, query counts, solver status, ...).
	Attrs map[string]float64 `json:"attrs,omitempty"`
	// Labels are optional string attributes: the tracer's bound labels
	// (SetLabel — correlation identity like session and request IDs)
	// merged with any Str attributes attached at End.
	Labels map[string]string `json:"labels,omitempty"`
}

// Tracer records completed spans into a fixed-capacity ring buffer.
// All methods are safe for concurrent use, and a nil *Tracer is a
// no-op: Begin returns a zero Span whose End does nothing, so
// instrumented code never branches on whether tracing is enabled.
//
// Depth tracking assumes spans on one tracer nest like a call stack
// (begin child after parent, end child before parent), which is how
// the synthesis loop — a single goroutine — uses it.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	buf     []SpanRecord // ring, valid up to min(total, len(buf))
	next    int          // ring write position
	total   uint64       // spans recorded ever
	seq     uint64       // spans begun ever
	depth   int          // current nesting level
	maxSpan int
	labels  map[string]string // bound labels, stamped on every recorded span
}

// NewTracer returns a tracer retaining the most recent `capacity`
// spans (DefaultTraceCapacity if capacity ≤ 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	// The ring grows on demand up to capacity: the synthesis service
	// creates one tracer per session, and most sessions record a few
	// hundred spans, far from the 256 KiB a full default ring takes.
	return &Tracer{epoch: time.Now(), maxSpan: capacity}
}

// Span is an in-flight span handle. The zero Span (from a nil tracer)
// is inert.
type Span struct {
	t     *Tracer
	name  string
	seq   uint64
	depth int
	start time.Time
}

// Attr is a typed span/log attribute — numeric (Num) or string (Str).
// The concrete struct avoids interface boxing, which is what keeps
// disabled-mode emission (Span.End on an inert span, Logger.Event on a
// nil logger) at zero allocations.
type Attr struct {
	Key   string
	Value float64
	S     string
	str   bool
}

// Num builds a numeric attribute.
func Num(key string, v float64) Attr { return Attr{Key: key, Value: v} }

// Str builds a string attribute. On spans it lands in
// SpanRecord.Labels; on log records it becomes a string value.
func Str(key, v string) Attr { return Attr{Key: key, S: v, str: true} }

// Active reports whether the span will record on End. Call sites use
// it to skip building attribute slices when tracing is disabled.
func (s Span) Active() bool { return s.t != nil }

// Begin opens a span. Nil-safe: on a nil tracer it returns an inert
// handle without reading the clock.
func (t *Tracer) Begin(name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	t.seq++
	sp := Span{t: t, name: name, seq: t.seq, depth: t.depth}
	t.depth++
	t.mu.Unlock()
	sp.start = time.Now()
	return sp
}

// End closes the span and records it. Calling End on an inert span is
// a no-op.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	end := time.Now()
	rec := SpanRecord{
		Seq:         s.seq,
		Name:        s.name,
		Depth:       s.depth,
		StartMicros: s.start.Sub(s.t.epoch).Microseconds(),
		DurMicros:   end.Sub(s.start).Microseconds(),
	}
	for _, a := range attrs {
		if a.str {
			if rec.Labels == nil {
				rec.Labels = make(map[string]string)
			}
			rec.Labels[a.Key] = a.S
		} else {
			if rec.Attrs == nil {
				rec.Attrs = make(map[string]float64, len(attrs))
			}
			rec.Attrs[a.Key] = a.Value
		}
	}
	t := s.t
	t.mu.Lock()
	if len(t.labels) > 0 {
		if rec.Labels == nil {
			rec.Labels = make(map[string]string, len(t.labels))
		}
		for k, v := range t.labels {
			// End-time Str attrs win over bound labels on a key collision.
			if _, ok := rec.Labels[k]; !ok {
				rec.Labels[k] = v
			}
		}
	}
	if t.depth > 0 {
		t.depth--
	}
	if len(t.buf) < t.maxSpan {
		t.buf = append(t.buf, rec)
	} else {
		t.buf[t.next] = rec
	}
	t.next = (t.next + 1) % t.maxSpan
	t.total++
	t.mu.Unlock()
}

// SetLabel binds a string label stamped onto every span recorded from
// now on — the correlation hook: a per-session tracer carries
// "session", and the serving layer updates "request_id" to the request
// currently driving the session, so solver spans link back to the HTTP
// request that caused them. An empty value removes the label. Nil-safe
// and callable concurrently with span recording.
func (t *Tracer) SetLabel(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if value == "" {
		delete(t.labels, key)
		return
	}
	if t.labels == nil {
		t.labels = make(map[string]string)
	}
	t.labels[key] = value
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Dropped returns how many spans the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(t.maxSpan) {
		return 0
	}
	return t.total - uint64(t.maxSpan)
}

// Spans returns the retained spans in begin (Seq) order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.buf...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSONL writes the retained spans as JSON Lines (one span object
// per line) in begin order — the `-trace file.jsonl` dump format.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range t.Spans() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
