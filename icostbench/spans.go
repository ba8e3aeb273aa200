package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one HTTP call
// share Req; Parent links a span to the span that caused it (0 = none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names, one per layer boundary the benchmark observes.
const (
	spanClient  = "client"  // benchmark client: request sent to reply read
	spanRouter  = "router"  // router handler
	spanForward = "forward" // router -> shard round trip, body included
	spanShard   = "shard"   // shard handler (daemon.NewHandler)
)

// Headers that carry a call's identity across loopback hops.
const (
	hdrReq    = "X-Icostbench-Req"
	hdrParent = "X-Icostbench-Parent"
)

// tracer keeps spans in memory until the run writes them out. Only calls
// the client marks with a call identity are traced, so traced and untraced
// calls can interleave on one set of services.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID returns a fresh span or call identifier.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
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

// callID is the identity of a call in flight, kept in a request context
// between the router's middleware and its outbound transport.
type callID struct{ req, span int64 }

type callKey struct{}

func idsFromHeader(r *http.Request) (req, parent int64) {
	req, _ = strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ = strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	return req, parent
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// middleware records one span named name around next for every traced
// request. The router's middleware also hands the call identity to its
// transport through the request context.
func (t *tracer) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent := idsFromHeader(r)
		if req == 0 {
			next.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.newID(), Parent: parent, Req: req, Name: name, Start: t.now()}
		cw := &countingWriter{ResponseWriter: w}
		if name == spanRouter {
			r = r.WithContext(context.WithValue(r.Context(), callKey{}, callID{req: req, span: s.ID}))
		}
		next.ServeHTTP(cw, r)
		s.End, s.Bytes = t.now(), cw.n
		t.record(s)
	})
}

// spanTransport records a forward span around the router -> shard round
// trips of traced calls, ending it when the response body is drained or
// closed, and passes the call identity on in headers. Untraced calls and
// replication traffic carry no call identity and pass straight through.
type spanTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (st spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(callKey{}).(callID)
	if !ok {
		return st.base.RoundTrip(r)
	}
	s := span{ID: st.t.newID(), Parent: id.span, Req: id.req, Name: spanForward, Start: st.t.now()}
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatInt(id.req, 10))
	r.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
	resp, err := st.base.RoundTrip(r)
	if err != nil {
		s.End = st.t.now()
		st.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: st.t, s: s}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.record(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (a hedged read's two forwards) count
// once, and child time outside the parent's interval does not count.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// callSpans indexes one call's spans by parent for self-time queries.
type callSpans struct {
	all      []span
	children map[int64][]span
}

// groupByReq groups spans by call, skipping spans with no call identity.
func groupByReq(spans []span) map[int64]*callSpans {
	out := map[int64]*callSpans{}
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		c := out[s.Req]
		if c == nil {
			c = &callSpans{children: map[int64][]span{}}
			out[s.Req] = c
		}
		c.all = append(c.all, s)
		c.children[s.Parent] = append(c.children[s.Parent], s)
	}
	return out
}

// named returns the call's spans with the given name.
func (c *callSpans) named(name string) []span {
	var out []span
	for _, s := range c.all {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
