// Package daemon is the HTTP surface of one icostd analysis shard,
// extracted from cmd/icostd so that the sharding router can spawn
// whole backend processes in-process (internal/router's Cluster) and
// serve byte-identical responses to what a real daemon would. One
// handler carries both planes:
//
//   - the session engine (internal/engine): /query answers
//     cost/icost/breakdown/slack/matrix queries against built
//     dependence graphs;
//   - the fleet data plane (internal/fleet): /ingest accepts binary
//     sample streams, and a "fleet" block in /query routes to the
//     aggregate profile;
//   - the replication plane: GET /snapshot streams one built
//     session's ICSS snapshot (the PR-7 codec) and POST /restore
//     installs one, which is how the router ships hot sessions
//     between shards; GET /sessions lists what is resident, with the
//     install generation the router uses to decide when a replica's
//     copy has gone stale.
//
// Error mapping is part of the contract: typed backpressure is 429 +
// Retry-After, client mistakes and malformed ingest streams are 400, a
// missing aggregate 404, bytes in a newer codec version 426, a corrupt
// or truncated snapshot 422, deadline expiry 504, disconnects 499 — so
// the router (and any load balancer) can classify failures without
// parsing error prose.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"

	"icost/internal/engine"
	"icost/internal/faultinject"
	"icost/internal/fleet"
	"icost/internal/profiler"
	"icost/internal/wire"
)

// Options configures the optional parts of the handler surface.
type Options struct {
	// Pprof mounts the Go runtime's profiling handlers under
	// /debug/pprof/ — off by default, since profiles expose internals
	// no production query endpoint should.
	Pprof bool
	// Ready gates /readyz (nil means always ready, for tests that only
	// exercise routing). The daemon flips it false during the shutdown
	// drain.
	Ready *atomic.Bool
}

// queryRequest is the /query wire shape: the engine query fields
// promoted at the top level (unchanged for existing clients) plus an
// optional fleet target. A request carrying "fleet" is answered from
// the aggregate profile; everything else goes to the session engine.
type queryRequest struct {
	engine.Query
	Fleet *fleet.Query `json:"fleet,omitempty"`
}

// metricsSnapshot flattens the engine and fleet metric sets into one
// JSON object (the aliases sidestep the embedded-name clash between
// the two Snapshot types).
type (
	engineMetrics = engine.Snapshot
	fleetMetrics  = fleet.Snapshot
)

type metricsSnapshot struct {
	engineMetrics
	fleetMetrics
}

// maxIngestBytes bounds one /ingest request body. A stream carries at
// most a few MiB per PMU drain batch; 256 MiB leaves generous room
// for a host replaying a backlog without letting one connection
// exhaust the process.
const maxIngestBytes = 1 << 28

// maxSnapshotBytes bounds one /restore request body; comfortably
// above any real session snapshot (a 30k-instruction session encodes
// to well under 1 MiB) while keeping a hostile push from exhausting
// the shard.
const maxSnapshotBytes = 1 << 30

// GenerationHeader carries a session's install generation on
// /snapshot responses, so a router can stamp the replica state it
// tracks without a second round trip.
const GenerationHeader = "X-Icost-Generation"

// NewHandler builds the shard's routing table over the session engine
// and the fleet aggregator.
func NewHandler(e *engine.Engine, agg *fleet.Aggregator, opts Options) http.Handler {
	mux := http.NewServeMux()
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			Error(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var q queryRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			Error(w, http.StatusBadRequest, "bad query JSON: "+err.Error())
			return
		}
		// Fault hook: handler-level failure after decode, before the
		// engine — models a dying front end rather than a bad engine.
		if err := faultinject.Hit(r.Context(), faultinject.DaemonQuery); err != nil {
			WriteQueryError(w, err)
			return
		}
		if q.Fleet != nil {
			resp, err := agg.Query(r.Context(), *q.Fleet)
			if err != nil {
				WriteQueryError(w, err)
				return
			}
			JSON(w, http.StatusOK, resp)
			return
		}
		resp, err := e.Query(r.Context(), q.Query)
		if err != nil {
			WriteQueryError(w, err)
			return
		}
		JSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			Error(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		h, n, err := fleet.ReadStream(http.MaxBytesReader(w, r.Body, maxIngestBytes),
			func(h fleet.Header, s *profiler.Samples) error {
				return agg.Ingest(r.Context(), h, s)
			})
		if err != nil {
			// Batches merged before the failure stay merged — lossy
			// collection is the fleet contract — but the response is an
			// error so the host knows its stream did not land whole.
			// Malformed, truncated or newer-format bytes are the
			// sender's problem, not the server's.
			var bad *wire.CorruptError
			var ver *wire.VersionError
			if errors.As(err, &bad) || errors.As(err, &ver) {
				Error(w, http.StatusBadRequest, err.Error())
				return
			}
			WriteQueryError(w, err)
			return
		}
		JSON(w, http.StatusOK, map[string]any{
			"key":     h.Key().String(),
			"host":    h.Host,
			"batches": n,
		})
	})
	// Replication plane: /sessions lists the resident built sessions
	// with install generations, /snapshot streams one session's ICSS
	// bytes, /restore installs a pushed snapshot. Together they are the
	// shard side of hot-session replication — the router pulls from
	// the primary and pushes to replicas.
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, r *http.Request) {
		JSON(w, http.StatusOK, map[string]any{"sessions": e.Sessions()})
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("session")
		if key == "" {
			Error(w, http.StatusBadRequest, "missing ?session=<key>")
			return
		}
		gen, ok := e.SessionGeneration(key)
		if !ok {
			Error(w, http.StatusNotFound, "no built session "+key)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(GenerationHeader, strconv.FormatUint(gen, 10))
		if err := e.SnapshotSession(r.Context(), key, w); err != nil {
			// Headers are already out; the truncated body will fail the
			// receiver's CRC check, which is the designed failure mode.
			return
		}
	})
	mux.HandleFunc("/restore", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			Error(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		key, err := e.RestoreSession(r.Context(), http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
		if err != nil {
			WriteQueryError(w, err)
			return
		}
		gen, _ := e.SessionGeneration(key)
		JSON(w, http.StatusOK, map[string]any{
			"session":    key,
			"generation": gen,
		})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// One flat JSON object: engine and fleet key sets are disjoint
		// (fleet counters carry a fleet_ prefix), so embedding keeps
		// existing /metrics consumers decoding engine.Snapshot intact.
		JSON(w, http.StatusOK, metricsSnapshot{e.Metrics(), agg.Metrics()})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		m := e.Metrics()
		JSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"uptime_seconds": m.UptimeSeconds,
			"sessions_live":  m.SessionsLive,
			"in_flight":      m.InFlight,
		})
	})
	// Liveness (/healthz, above) and readiness are deliberately
	// separate: during the shutdown drain the process is still alive —
	// restarting it would kill the very queries it is draining — but
	// it must stop receiving new traffic.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if opts.Ready != nil && !opts.Ready.Load() {
			JSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		JSON(w, http.StatusOK, map[string]any{"status": "ready"})
	})
	return mux
}

// WriteQueryError maps engine and fleet errors onto HTTP semantics:
// typed backpressure becomes 429 + Retry-After, deadline expiry 504,
// client disconnect 499 (nginx convention), closed engine 503,
// malformed queries and stream headers (the typed validation errors)
// 400, a fleet query against an absent aggregate 404, bytes in a
// codec version this build cannot decode 426, bytes that fail their
// checksum or their structural checks 422 (/ingest answers bad bytes
// 400 itself), and any unclassified failure — a broken build, an internal
// fault — 500, so server-side trouble is never misreported as the
// client's.
func WriteQueryError(w http.ResponseWriter, err error) {
	var full *engine.QueueFullError
	var bad *engine.ValidationError
	var fbad *fleet.ValidationError
	var fmiss *fleet.NotFoundError
	var sver *wire.VersionError
	var scrc *wire.ChecksumError
	var scor *wire.CorruptError
	switch {
	case errors.As(err, &full):
		secs := int(full.RetryAfter.Seconds() + 0.5)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		Error(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		Error(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		Error(w, 499, err.Error())
	case errors.Is(err, engine.ErrClosed):
		Error(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &sver):
		Error(w, http.StatusUpgradeRequired, err.Error())
	case errors.As(err, &scrc), errors.As(err, &scor):
		Error(w, http.StatusUnprocessableEntity, err.Error())
	case errors.As(err, &bad), errors.As(err, &fbad):
		Error(w, http.StatusBadRequest, err.Error())
	case errors.As(err, &fmiss):
		Error(w, http.StatusNotFound, err.Error())
	default:
		Error(w, http.StatusInternalServerError, err.Error())
	}
}

// Error writes a JSON error body with the given status.
func Error(w http.ResponseWriter, code int, msg string) {
	JSON(w, code, map[string]string{"error": msg})
}

// JSON writes v as an indented JSON response with the given status.
func JSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
