package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own code only: around
// Stepper calls, in middleware wrapped around the router and member
// handlers, and in RoundTrippers given to the router's proxy client and
// the members' replica clients. The program itself is not instrumented.

// parentHeader carries the caller's span id across an HTTP hop, so the
// callee's handler span names its parent.
const parentHeader = "X-Perfbench-Parent"

// span is one finished interval. Times are nanoseconds since the
// recorder was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ReqID  string `json:"request_id,omitempty"`
	Detail string `json:"detail,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	// reqs maps open span ids to their request ids, so a child that
	// knows only its parent id inherits the request id.
	reqs map[int64]string
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), reqs: map[int64]string{}}
}

// openSpan is a started span; end records it. Methods are nil-safe.
type openSpan struct {
	r *recorder
	s span
}

// begin starts a span. An empty reqID inherits the parent's.
func (r *recorder) begin(name string, parent int64, reqID, detail string) *openSpan {
	if r == nil {
		return nil
	}
	id := r.nextID.Add(1)
	r.mu.Lock()
	if reqID == "" {
		reqID = r.reqs[parent]
	}
	r.reqs[id] = reqID
	r.mu.Unlock()
	return &openSpan{r: r, s: span{
		ID: id, Parent: parent, Name: name, ReqID: reqID, Detail: detail,
		Start: int64(time.Since(r.epoch)),
	}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.epoch))
	o.r.mu.Lock()
	delete(o.r.reqs, o.s.ID)
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// all returns the finished spans in start order.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the span's duration minus the part of its interval that
// the union of its children covers; overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			covered += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	covered += cur.b - cur.a
	return parent.dur() - time.Duration(covered)
}

// children indexes spans by parent id.
func children(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// route names a request by method and API verb, and returns the
// session id it addresses ("" for none).
func route(r *http.Request) (string, string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) >= 4 && parts[0] == "v1" && parts[1] == "replica":
		return r.Method + " replica", parts[3]
	case len(parts) == 2 && parts[0] == "v1" && parts[1] == "sessions":
		return r.Method + " sessions", ""
	case len(parts) == 3 && parts[0] == "v1" && parts[1] == "sessions":
		return r.Method + " status", parts[2]
	case len(parts) >= 4 && parts[0] == "v1" && parts[1] == "sessions":
		return r.Method + " " + parts[3], parts[2]
	}
	return r.Method + " " + r.URL.Path, ""
}

type ctxSpanKey struct{}

// tap records handler spans on one server and call spans on the client
// that server's process uses for its outgoing requests. enabled gates
// recording so the traced run can measure an untraced phase with the
// same wiring.
type tap struct {
	rec       *recorder
	enabled   *atomic.Bool
	handler   string // span name of inbound requests
	call      string // span name of outbound requests
	base      http.RoundTripper
	mu        sync.Mutex
	judgments map[string]int64 // session id -> open judgment handler span
}

// newTap builds a tap whose outgoing transport matches the default the
// program would build for itself (maxIdle idle connections per host).
func newTap(rec *recorder, enabled *atomic.Bool, handler, call string, maxIdle int) *tap {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxIdle
	return &tap{rec: rec, enabled: enabled, handler: handler, call: call, base: tr, judgments: map[string]int64{}}
}

func (t *tap) on() bool { return t.rec != nil && t.enabled.Load() }

// wrap times every inbound request. The caller's span id arrives in
// parentHeader; the request id is the X-Request-Id the benchmark's
// client set and the router forwards.
func (t *tap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		name, session := route(r)
		sp := t.rec.begin(t.handler, parent, r.Header.Get("X-Request-Id"), name)
		if name == "POST judgments" {
			t.mu.Lock()
			t.judgments[session] = sp.id()
			t.mu.Unlock()
			defer func() {
				t.mu.Lock()
				delete(t.judgments, session)
				t.mu.Unlock()
			}()
		}
		defer sp.end()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxSpanKey{}, sp.id())))
	})
}

// RoundTrip times one outgoing request. Its parent is the handler span
// in the request's context (router proxy calls) or, for replica pushes,
// which the service sends on a fresh context, the open judgment handler
// of the same session on this member.
func (t *tap) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.on() {
		return t.base.RoundTrip(r)
	}
	name, session := route(r)
	parent, _ := r.Context().Value(ctxSpanKey{}).(int64)
	if parent == 0 && strings.HasSuffix(name, " replica") {
		t.mu.Lock()
		parent = t.judgments[session]
		t.mu.Unlock()
	}
	sp := t.rec.begin(t.call, parent, "", name)
	out := r.Clone(r.Context())
	out.Header.Set(parentHeader, fmt.Sprint(sp.id()))
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// endOnClose ends a call span when the caller has read and closed the
// response body, so the span covers the whole exchange.
type endOnClose struct {
	io.ReadCloser
	sp   *openSpan
	once sync.Once
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.sp.end)
	return err
}
