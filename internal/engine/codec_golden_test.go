package engine

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"testing"

	"icost/internal/fleet"
	"icost/internal/ooo"
	"icost/internal/profiler"
	"icost/internal/trace"
	"icost/internal/workload"
)

// goldenSnapshot encodes the built session for spec with its build
// wall time pinned, the one field of an ICSS payload that is not a
// function of the spec.
func goldenSnapshot(tb testing.TB, e *Engine, spec SessionSpec) []byte {
	tb.Helper()
	key, err := e.Warm(context.Background(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	s := *e.sessionByKey(key)
	s.built = 123456789
	var buf bytes.Buffer
	if err := writeSnapshot(context.Background(), &buf, &s); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecGoldenBytes pins the exact bytes of all four binary
// formats — ICTR traces, ICSP sample batches, ICFS ingest streams and
// ICSS snapshots, whole-graph and windowed — on fixed inputs. Files
// and peers written by earlier builds must keep decoding, so any
// change to these hashes is a format change and needs a new version.
func TestCodecGoldenBytes(t *testing.T) {
	w, err := workload.Cached("gzip", 42)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Execute(3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	var ictr bytes.Buffer
	if err := trace.Write(&ictr, tr); err != nil {
		t.Fatal(err)
	}

	res, err := ooo.Simulate(tr, ooo.DefaultConfig(), ooo.Options{KeepGraph: true, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := profiler.DefaultConfig()
	pcfg.Seed = 7
	batch, err := profiler.Collect(tr, res.Graph, 1000, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg.Seed = 8
	batch2, err := profiler.Collect(tr, res.Graph, 1000, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	var icsp, icfs bytes.Buffer
	if err := profiler.WriteSamples(&icsp, batch); err != nil {
		t.Fatal(err)
	}
	h := fleet.Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "h1"}
	if err := fleet.WriteStream(&icfs, h, []*profiler.Samples{batch, batch2}); err != nil {
		t.Fatal(err)
	}

	e := New(Config{Workers: 1})
	defer e.Close()
	whole := goldenSnapshot(t, e, SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000})
	windowed := goldenSnapshot(t, e, SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000, WindowInsts: 512})

	for _, c := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"ICTR trace", ictr.Bytes(), "5ddb3974ea23c2e06da538f19e8373568b5ac98606e03ba76e55772cb70c6482"},
		{"ICSP batch", icsp.Bytes(), "a21439c28bef75e7bb6122b60972e92aab7bc500fe94364fe49169a1e6c00ba4"},
		{"ICFS stream", icfs.Bytes(), "e02d6a23e1775c4760693cd2f083bcce36119e30f30953557d4a2ea5d0987c93"},
		{"ICSS whole graph", whole, "6b63ad094673af81eb1325da3c5b88a59ed2d385f9611f78a7098c871b447806"},
		{"ICSS windowed", windowed, "338e0ec13849f62e4dda9e9bd5d9dace87db5c669ce2f4b937d9576516d0e12b"},
	} {
		sum := sha256.Sum256(c.enc)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes hash to %s, want %s", c.name, len(c.enc), got, c.want)
		}
	}
}

// snapshotV1 derives the version-1 frame of a whole-graph version-2
// snapshot: v1 payloads carry no spec window_insts field and no kind
// byte, and otherwise match v2 byte for byte. The CRC is recomputed
// over the shortened payload.
func snapshotV1(t *testing.T, v2 []byte) []byte {
	t.Helper()
	r := bytes.NewReader(v2[9:]) // past magic+version and CRC
	plen, err := binary.ReadUvarint(r)
	if err != nil {
		t.Fatal(err)
	}
	payload := v2[len(v2)-int(plen):]
	pr := bufio.NewReader(bytes.NewReader(payload))
	var v1 []byte
	copyUv := func(keep bool) uint64 {
		v, err := binary.ReadUvarint(pr)
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			v1 = binary.AppendUvarint(v1, v)
		}
		return v
	}
	name := make([]byte, copyUv(true))
	if _, err := io.ReadFull(pr, name); err != nil {
		t.Fatal(err)
	}
	v1 = append(v1, name...)
	for i := 0; i < 1+6; i++ { // seed and the six v1 spec ints
		copyUv(true)
	}
	if wi := copyUv(false); wi != 0 {
		t.Fatalf("window_insts %d: only whole-graph snapshots have a v1 form", wi)
	}
	copyUv(true) // build time
	copyUv(true) // cycles
	if kind, err := pr.ReadByte(); err != nil || kind != snapKindGraph {
		t.Fatalf("kind byte %d, %v", kind, err)
	}
	rest, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	v1 = append(v1, rest...)

	frame := []byte{'I', 'C', 'S', 'S', snapVersion1}
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(v1, crc32.MakeTable(crc32.Castagnoli)))
	frame = binary.AppendUvarint(frame, uint64(len(v1)))
	return append(frame, v1...)
}

// TestSnapshotV1Restores: a version-1 snapshot (whole-graph only, no
// window_insts, no kind byte) still restores, and the restored session
// re-snapshots to the version-2 bytes it was derived from.
func TestSnapshotV1Restores(t *testing.T) {
	ctx := context.Background()
	e := New(Config{Workers: 1})
	defer e.Close()
	v2 := goldenSnapshot(t, e, SessionSpec{Bench: "mcf", TraceLen: 2000, Warmup: 1000})
	v1 := snapshotV1(t, v2)
	if len(v1) != len(v2)-2 {
		t.Fatalf("v1 frame is %d bytes, want %d", len(v1), len(v2)-2)
	}

	e2 := New(Config{Workers: 1})
	defer e2.Close()
	key, err := e2.RestoreSession(ctx, bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 restore: %v", err)
	}
	var again bytes.Buffer
	if err := e2.SnapshotSession(ctx, key, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), v2) {
		t.Fatalf("v1 restore re-snapshots to %d bytes that differ from the %d-byte v2 original",
			again.Len(), len(v2))
	}
}
