package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"icost/internal/cache"
	"icost/internal/cost"
	"icost/internal/depgraph"
	"icost/internal/faultinject"
	"icost/internal/isa"
	"icost/internal/ooo"
	"icost/internal/wire"
)

// Durable session snapshots. A built session is expensive — trace
// generation plus out-of-order simulation — but every query it can
// answer needs only the normalized spec and the dependence graph
// (execute reads the analyzer, which wraps the graph). The snapshot
// encodes exactly that closure, so a daemon restart restores its
// working set in milliseconds instead of re-simulating it:
//
//	magic    "ICSS" + version byte
//	checksum 4-byte little-endian CRC-32C of the payload
//	length   uvarint payload byte count
//	payload  normalized spec, build wall time, simulated cycles, a
//	         kind byte, then the kind-specific body: kind 0 (whole
//	         graph) is graph config + per-instruction records
//	         (varints); kind 1 (windowed) is the folded 256-entry
//	         idealization-subset table plus the windowed run's shape
//
// Version 2 added the spec's window_insts field and the kind byte;
// version-1 snapshots (whole-graph only) still load. The encoding is
// canonical: the same session always produces the same bytes, so a
// snapshot of a restored session is bit-identical to the snapshot it
// came from (property-tested in snapshot_test.go). The checksum makes
// corruption a clean load error, never a corrupt graph answering
// queries.

// Snapshot format versions. Adding a version means adding a constant
// here AND a dispatch case in readSnapshot — codecver enforces both,
// and that the encoder stamps the newest version.
//
//lint:codec icss
const (
	snapVersion1       = 1 // whole-graph payloads only, no kind byte
	snapVersion2       = 2 // adds spec window_insts and the kind byte
	snapVersionCurrent = snapVersion2
)

// snapMagic is the header every written snapshot starts with: the
// four ICSS bytes plus the current format version.
//
//lint:codec-encode icss
var snapMagic = [5]byte{'I', 'C', 'S', 'S', snapVersionCurrent}

// Snapshot payload kinds (version ≥ 2).
const (
	snapKindGraph    = 0
	snapKindWindowed = 1
)

// maxSnapPayload bounds a snapshot payload (a 30k-instruction session
// encodes to well under 1 MiB; 1 GiB is a generous corruption guard).
const maxSnapPayload = 1 << 30

// SnapshotSession encodes the built session identified by key into w.
// The session stays live — encoding only reads the graph, which is
// immutable after build, so snapshots can be taken while queries run.
// Close waits for an encode in progress before releasing the graph.
func (e *Engine) SnapshotSession(ctx context.Context, key string, w io.Writer) error {
	e.submitMu.RLock()
	if e.closed {
		e.submitMu.RUnlock()
		return ErrClosed
	}
	e.snapWG.Add(1)
	e.submitMu.RUnlock()
	defer e.snapWG.Done()
	s := e.sessionByKey(key)
	if s == nil {
		return fmt.Errorf("engine: no built session %q to snapshot", key)
	}
	return writeSnapshot(ctx, w, s)
}

// sessionByKey returns the completed session for key, or nil.
func (e *Engine) sessionByKey(key string) *session {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	el, ok := e.store.items[key]
	if !ok {
		return nil
	}
	entry := el.Value.(*sessionEntry)
	select {
	case <-entry.ready:
		return entry.sess
	default:
		return nil
	}
}

func writeSnapshot(ctx context.Context, w io.Writer, s *session) error {
	if err := faultinject.Hit(ctx, faultinject.FleetSnapshot); err != nil {
		return err
	}
	var payload bytes.Buffer
	bw := wire.NewWriter(&payload)

	sp := s.spec
	bw.String(sp.Bench)
	bw.Uvarint(sp.Seed)
	for _, f := range snapSpecFields(&sp) {
		bw.Uvarint(uint64(*f))
	}
	bw.Uvarint(uint64(s.built))
	bw.Uvarint(uint64(s.result.Cycles))

	if s.windowed {
		bw.WriteByte(snapKindWindowed)
		bw.Uvarint(uint64(s.insts))
		bw.Uvarint(uint64(s.windows))
		bw.Uvarint(uint64(s.peakBytes))
		bw.Uvarint(uint64(len(s.table)))
		for _, t := range s.table {
			bw.Uvarint(uint64(t))
		}
	} else {
		bw.WriteByte(snapKindGraph)
		g := s.result.Graph
		n := g.Len()
		bw.Uvarint(uint64(n))
		cfg := g.Cfg
		for _, f := range snapCfgFields(&cfg) {
			bw.Uvarint(uint64(*f))
		}
		for i := 0; i < n; i++ {
			info := &g.Info[i]
			bw.WriteByte(byte(info.Op))
			bw.Uvarint(uint64(info.SIdx + 1))
			bw.Flags(info.Mispredict, info.DTLBMiss, info.ITLBMiss)
			bw.WriteByte(byte(info.DataLevel))
			bw.WriteByte(byte(info.ILevel))
			bw.WriteByte(g.DDBreak[i])
			bw.Uvarint(uint64(g.RELat[i]))
			bw.Uvarint(uint64(g.CCLat[i]))
			bw.Uvarint(uint64(g.Prod1[i] + 1))
			bw.Uvarint(uint64(g.Prod2[i] + 1))
			bw.Uvarint(uint64(g.PPLeader[i] + 1))
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	out := wire.NewWriter(w)
	out.Write(snapMagic[:])
	out.Checksummed(payload.Bytes())
	return out.Flush()
}

// snapSpecFields lists a spec's integer fields in canonical order;
// window_insts, last, is absent from version-1 payloads.
func snapSpecFields(sp *SessionSpec) []*int {
	return []*int{&sp.TraceLen, &sp.Warmup, &sp.DL1Latency, &sp.Window, &sp.WakeupExtra, &sp.BranchRecovery,
		&sp.WindowInsts}
}

// snapCfgFields lists a graph config's fields in canonical order.
func snapCfgFields(c *depgraph.Config) []*int {
	return []*int{
		&c.FetchBW, &c.CommitBW, &c.Window, &c.WindowIdealFactor,
		&c.DispatchToReady, &c.CompleteToCommit, &c.BranchRecovery, &c.WakeupExtra,
		&c.DL1Latency, &c.L2Latency, &c.MemLatency, &c.TLBMissLatency,
	}
}

// RestoreSession decodes one snapshot from r and installs it in the
// session store, returning the restored session's key. A session
// already live (or building) under the same key wins: the snapshot is
// decoded and discarded, and the live key is returned. Malformed bytes
// are a *wire.CorruptError, a damaged payload a *wire.ChecksumError
// and a newer format a *wire.VersionError.
func (e *Engine) RestoreSession(ctx context.Context, r io.Reader) (string, error) {
	s, err := readSnapshot(ctx, r)
	if err != nil {
		return "", err
	}
	e.installSession(s)
	return s.key, nil
}

// readSnapshot decodes one framed snapshot, dispatching on the
// version byte: every declared snapVersion* constant has a case.
//
//lint:codec-decode icss
func readSnapshot(ctx context.Context, r io.Reader) (*session, error) {
	if err := faultinject.Hit(ctx, faultinject.FleetSnapshot); err != nil {
		return nil, err
	}
	fr := wire.NewReader(r, "engine")
	version := fr.Magic("ICSS")
	switch version {
	case snapVersion1, snapVersion2:
	default:
		return nil, fr.Unsupported(version, snapVersionCurrent)
	}
	payload := fr.Checksummed(maxSnapPayload)
	if fr.End(); !fr.Ok() {
		return nil, fr.Err()
	}
	return decodeSnapshot(version, payload)
}

// decodeSnapshot decodes a checksum-verified payload. Beyond the
// field bounds it enforces the invariants every walk assumes: each
// producer and leader reference points strictly backward, and the
// unidealized critical path equals the recorded cycle count (windowed
// payloads check their base lane the same way). The spec must be in
// the normal form the encoder writes, so an accepted payload is the
// one encoding of its session.
func decodeSnapshot(version byte, payload []byte) (*session, error) {
	br := wire.NewReader(bytes.NewReader(payload), "engine")
	var sp SessionSpec
	sp.Bench = br.String(1 << 12)
	sp.Seed = br.Uvarint(1 << 63)
	fields := snapSpecFields(&sp)
	if version < snapVersion2 {
		fields = fields[:len(fields)-1]
	}
	for _, f := range fields {
		*f = int(br.Uvarint(1 << 31))
	}
	built := time.Duration(br.Uvarint(1 << 62))
	cycles := int64(br.Uvarint(1 << 62))
	kind := byte(snapKindGraph)
	if version >= snapVersion2 {
		kind = br.Byte()
	}
	if !br.Ok() {
		return nil, br.Err()
	}
	spec, err := sp.normalize()
	switch {
	case err != nil:
		return nil, br.Fail("snapshot spec: %v", err)
	case spec != sp:
		return nil, br.Fail("snapshot spec %+v is not in normal form", sp)
	case (spec.WindowInsts > 0) != (kind == snapKindWindowed):
		return nil, br.Fail("snapshot kind %d disagrees with spec window_insts %d", kind, spec.WindowInsts)
	}
	key, _ := spec.Key()
	switch kind {
	case snapKindWindowed:
		return readWindowedBody(br, key, spec, built, cycles)
	case snapKindGraph:
		return readGraphBody(br, len(payload), key, spec, built, cycles)
	}
	return nil, br.Fail("unknown snapshot kind %d", kind)
}

// readGraphBody decodes a whole-graph (kind 0) body of a
// payloadLen-byte payload: graph config plus per-instruction records.
func readGraphBody(br *wire.Reader, payloadLen int, key string, spec SessionSpec, built time.Duration, cycles int64) (*session, error) {
	// The graph's columns are allocated up front, so the instruction
	// count is bounded by the records the payload can hold: each takes
	// at least 11 bytes (six single bytes and five varints).
	n := int(br.Uvarint(min(1<<24, uint64(payloadLen/11))))
	if br.Ok() && n != spec.TraceLen {
		return nil, br.Fail("snapshot graph has %d instructions, spec says %d", n, spec.TraceLen)
	}
	var cfg depgraph.Config
	for _, f := range snapCfgFields(&cfg) {
		*f = int(br.Uvarint(1 << 31))
	}
	if !br.Ok() {
		return nil, br.Err()
	}
	if err := cfg.Validate(); err != nil {
		return nil, br.Fail("snapshot graph config: %v", err)
	}
	g := depgraph.New(cfg, n)
	for i := 0; i < n && br.Ok(); i++ {
		info := &g.Info[i]
		if info.Op = isa.Op(br.Byte()); info.Op >= isa.NumOps {
			return nil, br.Fail("snapshot has invalid opcode %d", info.Op)
		}
		// Bound is MaxInt32: a stored 1<<31 would wrap SIdx around.
		info.SIdx = int32(br.Uvarint(1<<31-1)) - 1
		flags, data, inst := br.Byte(), br.Byte(), br.Byte()
		if flags > 7 {
			return nil, br.Fail("snapshot has invalid flag byte %#x", flags)
		}
		if data > byte(cache.LevelMem) || inst > byte(cache.LevelMem) {
			return nil, br.Fail("snapshot has invalid cache level")
		}
		info.Mispredict, info.DTLBMiss, info.ITLBMiss = flags&1 != 0, flags&2 != 0, flags&4 != 0
		info.DataLevel, info.ILevel = cache.Level(data), cache.Level(inst)
		g.DDBreak[i] = br.Byte()
		g.RELat[i] = int32(br.Uvarint(1 << 30))
		g.CCLat[i] = int32(br.Uvarint(1 << 30))
		// A reference is stored +1 and must name an earlier
		// instruction: a forward or self reference would make the
		// walks read a node time not yet computed.
		g.Prod1[i] = int32(br.Uvarint(uint64(i))) - 1
		g.Prod2[i] = int32(br.Uvarint(uint64(i))) - 1
		g.PPLeader[i] = int32(br.Uvarint(uint64(i))) - 1
	}
	if br.End(); !br.Ok() {
		return nil, br.Err()
	}
	if got := g.ExecTime(depgraph.Ideal{}); got != cycles {
		return nil, br.Fail("snapshot graph replays to %d cycles, recorded %d", got, cycles)
	}
	return &session{
		key:      key,
		spec:     spec,
		result:   &ooo.Result{Cycles: cycles, Graph: g},
		analyzer: cost.New(g),
		built:    built,
		pooled:   false, // restored graphs are heap-backed; release is a no-op
	}, nil
}

// readWindowedBody decodes a windowed (kind 1) body: run shape plus
// the folded subset table.
func readWindowedBody(br *wire.Reader, key string, spec SessionSpec, built time.Duration, cycles int64) (*session, error) {
	insts := int(br.Uvarint(1 << 40))
	windows := int(br.Uvarint(1 << 40))
	peakBytes := int64(br.Uvarint(1 << 50))
	tlen := br.Uvarint(1 << depgraph.NumFlags)
	switch {
	case !br.Ok():
		return nil, br.Err()
	case insts != spec.TraceLen:
		return nil, br.Fail("snapshot folded %d instructions, spec says %d", insts, spec.TraceLen)
	case tlen != 1<<depgraph.NumFlags:
		return nil, br.Fail("snapshot subset table has %d entries, want %d", tlen, 1<<depgraph.NumFlags)
	}
	table := make([]int64, tlen)
	for i := range table {
		table[i] = int64(br.Uvarint(1 << 62))
	}
	if br.End(); !br.Ok() {
		return nil, br.Err()
	}
	// The base lane is the simulated cycle count by the windowed
	// pipeline's self-check; re-verify so a corrupted-but-CRC-valid
	// table (or a hand-edited one) cannot answer queries.
	if table[0] != cycles {
		return nil, br.Fail("snapshot base lane %d != cycles %d", table[0], cycles)
	}
	return newWindowedSession(key, spec, table, &ooo.Result{Cycles: cycles},
		built, insts, windows, peakBytes), nil
}

// installSession publishes a restored session, respecting the store's
// LRU bound and single-flight discipline: if the key is already live
// or building, the restored copy is discarded (the store's version is
// at least as fresh). Returns whether the session was installed.
func (e *Engine) installSession(s *session) bool {
	s.analyzer.SetBatchObserver(e.met.recordBatch)
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	entry, builder := e.store.entry(s.key, time.Now())
	if !builder {
		return false
	}
	entry.sess = s
	entry.gen = e.gen.Add(1)
	close(entry.ready)
	e.met.sessionsBuilt.Add(1)
	e.met.sessionsEvicted.Add(int64(e.store.evict()))
	return true
}

// SessionInfo describes one resident, fully built session: its
// content-hash key, the engine-wide install generation (monotone; a
// higher generation under the same key means the entry was replaced),
// and whether it was built through the windowed pipeline.
type SessionInfo struct {
	Key        string `json:"key"`
	Generation uint64 `json:"generation"`
	Windowed   bool   `json:"windowed,omitempty"`
}

// Sessions lists the resident built sessions, most recently used
// first. Entries still building or failed are omitted — only sessions
// that can be snapshotted appear.
func (e *Engine) Sessions() []SessionInfo {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	var out []SessionInfo
	for el := e.store.ll.Front(); el != nil; el = el.Next() {
		entry := el.Value.(*sessionEntry)
		select {
		case <-entry.ready:
			if entry.sess != nil {
				out = append(out, SessionInfo{
					Key:        entry.key,
					Generation: entry.gen,
					Windowed:   entry.sess.windowed,
				})
			}
		default:
		}
	}
	return out
}

// SessionGeneration returns the install generation of the built
// session under key, with ok=false when no completed session is
// resident.
func (e *Engine) SessionGeneration(key string) (uint64, bool) {
	e.storeMu.Lock()
	defer e.storeMu.Unlock()
	el, ok := e.store.items[key]
	if !ok {
		return 0, false
	}
	entry := el.Value.(*sessionEntry)
	select {
	case <-entry.ready:
		if entry.sess != nil {
			return entry.gen, true
		}
	default:
	}
	return 0, false
}

// SaveSnapshots writes every built session to dir, one atomically
// renamed <key>.icss file each, and reports how many were saved. Call
// before Close: Close releases pool-backed graph storage back to the
// arena, after which sessions must not be read.
func (e *Engine) SaveSnapshots(ctx context.Context, dir string) (int, error) {
	e.storeMu.Lock()
	sessions := e.store.sessions()
	e.storeMu.Unlock()
	if len(sessions) == 0 {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	saved := 0
	for _, s := range sessions {
		if err := ctx.Err(); err != nil {
			return saved, err
		}
		if err := e.saveOne(ctx, dir, s); err != nil {
			return saved, err
		}
		saved++
		e.met.snapshotsSaved.Add(1)
	}
	return saved, nil
}

func (e *Engine) saveOne(ctx context.Context, dir string, s *session) error {
	final := filepath.Join(dir, s.key+".icss")
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := writeSnapshot(ctx, f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, final)
}

// LoadSnapshots restores every *.icss snapshot under dir into the
// session store and reports how many loaded. Individual corrupt or
// stale files are skipped (counted in the snapshot-load-error metric)
// rather than failing startup; a missing directory is zero sessions,
// not an error.
func (e *Engine) LoadSnapshots(ctx context.Context, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	loaded := 0
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".icss" {
			continue
		}
		if err := ctx.Err(); err != nil {
			return loaded, err
		}
		if e.loadOne(ctx, filepath.Join(dir, ent.Name())) {
			loaded++
		}
	}
	return loaded, nil
}

func (e *Engine) loadOne(ctx context.Context, path string) bool {
	f, err := os.Open(path)
	if err != nil {
		e.met.snapshotLoadErrors.Add(1)
		return false
	}
	defer f.Close()
	s, err := readSnapshot(ctx, f)
	if err != nil {
		e.met.snapshotLoadErrors.Add(1)
		return false
	}
	if !e.installSession(s) {
		return false
	}
	e.met.snapshotsLoaded.Add(1)
	return true
}
