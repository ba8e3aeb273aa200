package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/fleet"
	"icost/internal/router"
)

// Deployment defaults of icostd (shard) and icostd -route (router). The
// benchmark builds its services from the public constructors with exactly
// these settings: no fault injection, no injected service time and no
// shrunken cache budget.
const (
	deployCacheBytes   = 64 << 20
	deploySessions     = 8
	deployQueryTimeout = 30 * time.Second
	deployFleetBytes   = 64 << 20
	deployReplicas     = 2
	deployHedgeAfter   = 50 * time.Millisecond
	deployHotThreshold = 3
	deployLoadFactor   = 1.25
	deployTenantBurst  = 10
)

// shard is one in-process icostd shard on a loopback listener.
type shard struct {
	e   *engine.Engine
	agg *fleet.Aggregator
	srv *http.Server
	url string
}

// cluster is the service under test: one shard, or a router in front of
// several. url is where clients send requests.
type cluster struct {
	shards    []*shard
	rt        *router.Router
	rtCancel  context.CancelFunc
	rtSrv     *http.Server
	rtClient  *http.Transport
	url       string
	client    *http.Client
	transport *http.Transport
	tr        *tracer
	wg        sync.WaitGroup

	internMu sync.Mutex
	interned map[string][]byte
}

// startCluster starts n shards and, when routed, a router over them. With a
// tracer, every handler and the router's outbound transport record spans.
// The client opens at most conns connections.
func startCluster(n int, routed bool, conns int, tr *tracer) (*cluster, error) {
	c := &cluster{tr: tr}
	for i := 0; i < n; i++ {
		e := engine.New(engine.Config{
			CacheBytes:   deployCacheBytes,
			MaxSessions:  deploySessions,
			QueryTimeout: deployQueryTimeout,
		})
		agg := fleet.NewAggregator(fleet.Config{MaxBytes: deployFleetBytes})
		var h http.Handler = daemon.NewHandler(e, agg, daemon.Options{})
		if tr != nil {
			h = tr.middleware(spanShard, h)
		}
		url, srv, err := c.serve(h)
		if err != nil {
			e.Close()
			c.close()
			return nil, err
		}
		c.shards = append(c.shards, &shard{e: e, agg: agg, srv: srv, url: url})
	}
	c.url = c.shards[0].url
	if routed {
		backends := make([]string, len(c.shards))
		for i, s := range c.shards {
			backends[i] = s.url
		}
		c.rtClient = http.DefaultTransport.(*http.Transport).Clone()
		var rtt http.RoundTripper = c.rtClient
		if tr != nil {
			rtt = spanTransport{t: tr, base: c.rtClient}
		}
		ctx, cancel := context.WithCancel(context.Background())
		rt, err := router.New(ctx, router.Config{
			Backends:     backends,
			Replicas:     deployReplicas,
			HedgeAfter:   deployHedgeAfter,
			HotThreshold: deployHotThreshold,
			LoadFactor:   deployLoadFactor,
			TenantBurst:  deployTenantBurst,
			Client:       &http.Client{Transport: rtt},
		})
		if err != nil {
			cancel()
			c.close()
			return nil, err
		}
		c.rt, c.rtCancel = rt, cancel
		var h http.Handler = rt.Handler()
		if tr != nil {
			h = tr.middleware(spanRouter, h)
		}
		url, srv, err := c.serve(h)
		if err != nil {
			c.close()
			return nil, err
		}
		c.rtSrv, c.url = srv, url
	}
	c.transport = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	c.client = &http.Client{Transport: c.transport}
	return c, nil
}

// serve starts an HTTP server for h on a loopback port.
func (c *cluster) serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// Serve returns once close shuts the server down; there is no one
		// left to report that to.
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), srv, nil
}

// close stops every server, the router's replication worker and the
// engines, and waits for the serve loops to return.
func (c *cluster) close() {
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
	if c.rtSrv != nil {
		_ = c.rtSrv.Close()
	}
	if c.rt != nil {
		c.rt.Close()
		c.rtCancel()
	}
	if c.rtClient != nil {
		c.rtClient.CloseIdleConnections()
	}
	for _, s := range c.shards {
		_ = s.srv.Close()
	}
	c.wg.Wait()
	for _, s := range c.shards {
		s.e.Close()
	}
}

// engineTotals sums the engine metrics of every shard.
func (c *cluster) engineTotals() engine.Snapshot {
	var t engine.Snapshot
	for _, s := range c.shards {
		m := s.e.Metrics()
		t.QueriesTotal += m.QueriesTotal
		t.CacheHitsTotal += m.CacheHitsTotal
		t.CacheMissesTotal += m.CacheMissesTotal
		t.QueueRejectsTotal += m.QueueRejectsTotal
		t.ErrorsTotal += m.ErrorsTotal
		t.SessionsBuiltTotal += m.SessionsBuiltTotal
		t.SessionsEvictedTotal += m.SessionsEvictedTotal
		t.BatchesTotal += m.BatchesTotal
		t.BatchLanesTotal += m.BatchLanesTotal
	}
	return t
}

// fleetTotals sums the aggregator metrics of every shard.
func (c *cluster) fleetTotals() fleet.Snapshot {
	var t fleet.Snapshot
	for _, s := range c.shards {
		m := s.agg.Metrics()
		t.IngestBatchesTotal += m.IngestBatchesTotal
		t.IngestErrorsTotal += m.IngestErrorsTotal
	}
	return t
}

// reply is one HTTP call's outcome as the client saw it.
type reply struct {
	status int
	body   []byte
	err    error
	span   int64 // client span (and call) identity when traced
	// A /query success body is kept with its serving fields (cached,
	// elapsed_ns) zeroed and interned, so the many identical answers of a
	// cached mix share one copy; the fields themselves are kept here.
	elapsed time.Duration
	cached  bool
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// post sends one call. A traced call on a cluster with a tracer records
// the client span and passes the call identity on in headers.
func (c *cluster) post(ctx context.Context, path, contentType string, body []byte, traced bool) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", contentType)
	var s span
	traced = traced && c.tr != nil
	if traced {
		s = span{ID: c.tr.newID(), Name: spanClient}
		s.Req = s.ID
		req.Header.Set(hdrReq, strconv.FormatInt(s.Req, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
		s.Start = c.tr.now()
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if traced {
		s.End, s.Bytes = c.tr.now(), int64(len(b))
		c.tr.record(s)
	}
	if err != nil {
		return reply{status: resp.StatusCode, err: err, span: s.ID}
	}
	r := reply{status: resp.StatusCode, body: b, span: s.ID}
	if path == "/query" && r.ok() {
		r.body, r.elapsed, r.cached = c.intern(b)
	}
	return r
}

var (
	keyCached  = []byte(`"cached":`)
	keyElapsed = []byte(`"elapsed_ns":`)
)

// intern zeroes the serving fields of a /query reply body and returns the
// shared copy of the result, with the fields' values.
func (c *cluster) intern(body []byte) ([]byte, time.Duration, bool) {
	cs, ce := valueSpan(body, keyCached)
	es, ee := valueSpan(body, keyElapsed)
	if cs < 0 || es < 0 {
		return body, 0, false // not a Response; checking will say so
	}
	cached := string(body[cs:ce]) == "true"
	ns, _ := strconv.ParseInt(string(body[es:ee]), 10, 64)
	canon := make([]byte, 0, len(body))
	if cs < es {
		canon = append(append(append(append(canon, body[:cs]...), "false"...), body[ce:es]...), '0')
		canon = append(canon, body[ee:]...)
	} else {
		canon = append(append(append(append(canon, body[:es]...), '0'), body[ee:cs]...), "false"...)
		canon = append(canon, body[ce:]...)
	}
	c.internMu.Lock()
	defer c.internMu.Unlock()
	if c.interned == nil {
		c.interned = map[string][]byte{}
	}
	if shared, ok := c.interned[string(canon)]; ok {
		return shared, time.Duration(ns), cached
	}
	c.interned[string(canon)] = canon
	return canon, time.Duration(ns), cached
}

// valueSpan locates the scalar value of the last occurrence of key in a
// JSON body, or returns -1.
func valueSpan(body, key []byte) (int, int) {
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return -1, -1
	}
	lo := i + len(key)
	for lo < len(body) && body[lo] == ' ' {
		lo++
	}
	hi := lo
	for hi < len(body) && body[hi] != ',' && body[hi] != '\n' && body[hi] != '}' {
		hi++
	}
	return lo, hi
}

// awaitReplication waits until the router has installed want hot-session
// replicas, or fails after timeout.
func (c *cluster) awaitReplication(ctx context.Context, want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m := c.rt.Metrics()
		if m.ReplicationsTotal >= want {
			return nil
		}
		if m.ReplicationErrorsTotal > 0 {
			return fmt.Errorf("router: %d replication errors during warm-up", m.ReplicationErrorsTotal)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router: %d of %d replications after %v", m.ReplicationsTotal, want, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// callErr describes a failed call for diagnostics.
func callErr(r reply) error {
	if r.err != nil {
		return r.err
	}
	return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
}
