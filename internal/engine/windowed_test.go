package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// windowedQueryMix is the query surface a windowed session answers:
// everything but slack (which needs a resident graph).
func windowedQueryMix(spec SessionSpec) []Query {
	return []Query{
		{Session: spec, Op: OpCost, Cats: []string{"dl1"}},
		{Session: spec, Op: OpCost, Cats: []string{"win", "bw"}},
		{Session: spec, Op: OpICost, Cats: []string{"dl1", "win"}},
		{Session: spec, Op: OpExecTime, Cats: []string{"dmiss"}},
		{Session: spec, Op: OpExecTime},
		{Session: spec, Op: OpBreakdown},
		{Session: spec, Op: OpFull, Cats: []string{"dl1", "win", "bw"}},
		{Session: spec, Op: OpMatrix, Cats: []string{"dl1", "dmiss", "win"}},
	}
}

// answerOnly renders just the analysis payload of a response —
// stripping session identity, serving provenance, and the windowed
// shape fields — so windowed and whole-graph sessions for the same
// machine can be compared answer-for-answer.
func answerOnly(t *testing.T, resp *Response) []byte {
	t.Helper()
	cp := *resp
	cp.SessionKey = ""
	cp.Elapsed = 0
	cp.Cached = false
	cp.Windowed = false
	cp.Windows = 0
	cp.PeakBytes = 0
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWindowedSessionMatchesWholeGraph: a session built through the
// bounded-memory windowed pipeline answers the whole query surface
// identically to the resident-graph session for the same machine and
// trace — the engine-level restatement of the windowed-exactness
// property.
func TestWindowedSessionMatchesWholeGraph(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 2, MaxSessions: 4})
	defer e.Close()

	whole := SessionSpec{Bench: "gcc", Seed: 11, TraceLen: 5000, Warmup: 1000}
	windowed := whole
	windowed.WindowInsts = 777 // deliberately not dividing TraceLen

	for i, wq := range windowedQueryMix(whole) {
		want, err := e.Query(ctx, wq)
		if err != nil {
			t.Fatalf("whole-graph %s: %v", wq.Op, err)
		}
		qq := windowedQueryMix(windowed)[i]
		got, err := e.Query(ctx, qq)
		if err != nil {
			t.Fatalf("windowed %s: %v", qq.Op, err)
		}
		if !got.Windowed {
			t.Fatalf("%s: windowed session response not marked windowed", qq.Op)
		}
		if wantW := (whole.TraceLen + windowed.WindowInsts - 1) / windowed.WindowInsts; got.Windows != wantW {
			t.Fatalf("%s: %d windows, want %d", qq.Op, got.Windows, wantW)
		}
		if got.PeakBytes <= 0 {
			t.Fatalf("%s: peak bytes %d", qq.Op, got.PeakBytes)
		}
		if g, w := answerOnly(t, got), answerOnly(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s diverged:\n  whole:    %s\n  windowed: %s", wq.Op, w, g)
		}
	}
	if m := e.Metrics(); m.WindowedBuildsTotal != 1 {
		t.Fatalf("windowed builds %d, want 1", m.WindowedBuildsTotal)
	}

	// Slack needs a resident graph; a windowed session must reject it
	// as a validation error, not panic on its nil graph.
	_, err := e.Query(ctx, Query{Session: windowed, Op: OpSlack})
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("slack on windowed session: got %v, want validation error", err)
	}
	if _, err := e.Query(ctx, Query{Session: whole, Op: OpSlack}); err != nil {
		t.Fatalf("slack on whole-graph session: %v", err)
	}
}

// TestWindowedSpecValidation pins the spec-level contract for
// window_insts.
func TestWindowedSpecValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()

	bad := SessionSpec{Bench: "gcc", TraceLen: 500, WindowInsts: -1}
	var ve *ValidationError
	if _, err := e.Warm(ctx, bad); !errors.As(err, &ve) {
		t.Fatalf("negative window_insts: got %v", err)
	}
	// WakeupExtra beyond the windowed-exactness precondition is legal
	// for whole-graph sessions but must be rejected when windowed.
	edge := SessionSpec{Bench: "gcc", TraceLen: 500, WakeupExtra: 100}
	if _, err := e.Warm(ctx, edge); err != nil {
		t.Fatalf("whole-graph wakeup_extra=100: %v", err)
	}
	edge.WindowInsts = 64
	if _, err := e.Warm(ctx, edge); !errors.As(err, &ve) {
		t.Fatalf("windowed wakeup_extra=100: got %v", err)
	}
	// Machine latencies are bounded above, whole-graph or windowed.
	for _, huge := range []SessionSpec{
		{Bench: "gcc", TraceLen: 500, DL1Latency: 1 << 30},
		{Bench: "gcc", TraceLen: 500, BranchRecovery: maxSpecLatency + 1},
		{Bench: "gcc", TraceLen: 500, WakeupExtra: 1 << 30, WindowInsts: 64},
	} {
		if _, err := e.Warm(ctx, huge); !errors.As(err, &ve) {
			t.Fatalf("%+v: got %v, want validation error", huge, err)
		}
	}
	if _, err := e.Warm(ctx, SessionSpec{Bench: "gcc", TraceLen: 500, DL1Latency: maxSpecLatency}); err != nil {
		t.Fatalf("dl1_latency at the bound: %v", err)
	}
	// So is the window, whose fold rings scale with it.
	if _, err := e.Warm(ctx, SessionSpec{Bench: "gcc", TraceLen: 500, Window: 1024}); err != nil {
		t.Fatalf("window at the bound: %v", err)
	}
	if _, err := (SessionSpec{Bench: "gcc", TraceLen: 500, Window: 1024, WindowInsts: 64}).normalize(); err != nil {
		t.Fatalf("windowed window at the bound: %v", err)
	}
	for _, wi := range []int{0, 64} {
		over := SessionSpec{Bench: "gcc", TraceLen: 500, Window: 1025, WindowInsts: wi}
		if _, err := e.Warm(ctx, over); !errors.As(err, &ve) {
			t.Fatalf("%+v: got %v, want validation error", over, err)
		}
	}
	// window_insts is part of session identity.
	a := SessionSpec{Bench: "gcc", TraceLen: 500}
	b := a
	b.WindowInsts = 128
	ka, _ := a.Key()
	kb, _ := b.Key()
	if ka == kb {
		t.Fatal("window_insts not in session key")
	}
}

// TestWindowedSnapshotRoundTrip: a windowed session snapshots to the
// kind-1 payload, restores answering the full windowed query surface
// byte-identically, and re-snapshots bit-for-bit.
func TestWindowedSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	spec := SessionSpec{Bench: "vpr", Seed: 5, TraceLen: 4000, Warmup: 500, WindowInsts: 512}

	e1 := New(Config{Workers: 2, MaxSessions: 2})
	key, err := e1.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, q := range windowedQueryMix(spec) {
		resp, err := e1.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Op, err)
		}
		want = append(want, canonicalResponse(t, resp))
	}
	var snap bytes.Buffer
	if err := e1.SnapshotSession(ctx, key, &snap); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2 := New(Config{Workers: 2, MaxSessions: 2})
	defer e2.Close()
	gotKey, err := e2.RestoreSession(ctx, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Fatalf("restored key %s, want %s", gotKey, key)
	}
	for i, q := range windowedQueryMix(spec) {
		resp, err := e2.Query(ctx, q)
		if err != nil {
			t.Fatalf("restored %s: %v", q.Op, err)
		}
		if got := canonicalResponse(t, resp); !bytes.Equal(got, want[i]) {
			t.Fatalf("%s diverged after restore:\n  built:    %s\n  restored: %s", q.Op, want[i], got)
		}
	}
	if m := e2.Metrics(); m.SessionBuildP50us != 0 || m.WindowedBuildsTotal != 0 {
		t.Fatal("restored engine ran a cold build")
	}
	var snap2 bytes.Buffer
	if err := e2.SnapshotSession(ctx, key, &snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), snap2.Bytes()) {
		t.Fatalf("re-snapshot differs (%d vs %d bytes)", snap.Len(), snap2.Len())
	}
	// Slack stays rejected after restore.
	var ve *ValidationError
	if _, err := e2.Query(ctx, Query{Session: spec, Op: OpSlack}); !errors.As(err, &ve) {
		t.Fatalf("slack on restored windowed session: got %v", err)
	}
}

// TestSnapshotRestoresCSRByteEqual: restoring a whole-graph snapshot
// reproduces the flat CSR record columns byte for byte — the graph a
// restored session answers from is the graph that was simulated, not
// a merely equivalent one.
func TestSnapshotRestoresCSRByteEqual(t *testing.T) {
	ctx := context.Background()
	spec := SessionSpec{Bench: "mcf", Seed: 13, TraceLen: 3000, Warmup: 300}

	e1 := New(Config{Workers: 1})
	key, err := e1.Warm(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	orig := e1.sessionByKey(key)
	if orig == nil || orig.result.Graph == nil {
		t.Fatal("built session has no graph")
	}
	var snap bytes.Buffer
	if err := e1.SnapshotSession(ctx, key, &snap); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{Workers: 1})
	defer e2.Close()
	if _, err := e2.RestoreSession(ctx, bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	rest := e2.sessionByKey(key)
	if rest == nil || rest.result.Graph == nil {
		t.Fatal("restored session has no graph")
	}
	g1, g2 := orig.result.Graph, rest.result.Graph
	if g1.Len() != g2.Len() {
		t.Fatalf("lengths differ: %d vs %d", g1.Len(), g2.Len())
	}
	n := g1.Len()
	if !bytes.Equal(g1.DDBreak[:n], g2.DDBreak[:n]) {
		t.Fatal("DDBreak columns differ")
	}
	for i := 0; i < n; i++ {
		if g1.Info[i] != g2.Info[i] {
			t.Fatalf("Info[%d]: %+v vs %+v", i, g1.Info[i], g2.Info[i])
		}
		if g1.RELat[i] != g2.RELat[i] || g1.CCLat[i] != g2.CCLat[i] ||
			g1.Prod1[i] != g2.Prod1[i] || g1.Prod2[i] != g2.Prod2[i] ||
			g1.PPLeader[i] != g2.PPLeader[i] {
			t.Fatalf("record %d differs: (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)", i,
				g1.RELat[i], g1.CCLat[i], g1.Prod1[i], g1.Prod2[i], g1.PPLeader[i],
				g2.RELat[i], g2.CCLat[i], g2.Prod1[i], g2.Prod2[i], g2.PPLeader[i])
		}
	}
	e1.Close() // after comparison: Close releases pooled graph storage
}
