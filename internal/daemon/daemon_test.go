package daemon

// Tests for the replication plane — the shard-side HTTP surface the
// sharding router drives. The error mapping matters as much as the
// happy path: the router distinguishes "replica runs an older codec"
// (426, stop pushing) from "bytes damaged in transit" (422, retry),
// so those statuses are contract, not decoration.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"icost/internal/engine"
	"icost/internal/fleet"
	"icost/internal/leakcheck"
)

// startShard boots one daemon handler over a real engine.
func startShard(t *testing.T) (*engine.Engine, *httptest.Server) {
	t.Helper()
	e := engine.New(engine.Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(e, fleet.NewAggregator(fleet.Config{}), Options{}))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

// TestReplicationPlaneRoundTrip: /snapshot streams a built session
// with its install generation in the header, /restore installs it on
// a second shard, and /sessions reports the copy.
func TestReplicationPlaneRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	e1, srv1 := startShard(t)
	_, srv2 := startShard(t)

	key, err := e1.Warm(t.Context(), engine.SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv1.URL + "/snapshot?session=" + key)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot pull: status %d, err %v", resp.StatusCode, err)
	}
	gen, err := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	if err != nil || gen == 0 {
		t.Fatalf("generation header %q unusable: %v", resp.Header.Get(GenerationHeader), err)
	}

	resp, err = http.Post(srv2.URL+"/restore", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d: %s", resp.StatusCode, out)
	}

	resp, err = http.Get(srv2.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Sessions []engine.SessionInfo `json:"sessions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != 1 || listing.Sessions[0].Key != key {
		t.Fatalf("replica sessions = %+v, want the restored key %s", listing.Sessions, key)
	}
	if listing.Sessions[0].Generation != gen {
		t.Fatalf("replica generation %d, want the primary's %d", listing.Sessions[0].Generation, gen)
	}

	// Pulling an unbuilt session is a clean 404.
	resp, err = http.Get(srv1.URL + "/snapshot?session=0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session snapshot: status %d, want 404", resp.StatusCode)
	}
}

// TestRestoreErrorStatuses: the typed snapshot decode errors map to
// distinct, router-distinguishable statuses — codec version to 426,
// checksum damage or a CRC-valid frame that breaks the graph's
// structure to 422 — and none installs anything.
func TestRestoreErrorStatuses(t *testing.T) {
	leakcheck.Check(t)
	e1, srv1 := startShard(t)
	e2, srv2 := startShard(t)

	key, err := e1.Warm(t.Context(), engine.SessionSpec{Bench: "gzip", TraceLen: 3000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv1.URL + "/snapshot?session=" + key)
	if err != nil {
		t.Fatal(err)
	}
	good, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot pull: status %d, err %v", resp.StatusCode, err)
	}

	push := func(raw []byte) int {
		t.Helper()
		resp, err := http.Post(srv2.URL+"/restore", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	future := append([]byte(nil), good...)
	future[4] = 0x7f // codec version byte
	if got := push(future); got != http.StatusUpgradeRequired {
		t.Fatalf("future codec version: status %d, want 426", got)
	}

	damaged := append([]byte(nil), good...)
	damaged[len(damaged)-1] ^= 0x01
	if got := push(damaged); got != http.StatusUnprocessableEntity {
		t.Fatalf("damaged payload: status %d, want 422", got)
	}

	if got := push(forwardRefSnapshot(t, good)); got != http.StatusUnprocessableEntity {
		t.Fatalf("CRC-valid forward reference: status %d, want 422", got)
	}

	if got := push([]byte("this is not a snapshot")); got != http.StatusUnprocessableEntity {
		t.Fatalf("garbage body: status %d, want 422", got)
	}
	if got := push(good[:len(good)/2]); got != http.StatusUnprocessableEntity {
		t.Fatalf("truncated frame: status %d, want 422", got)
	}

	if m := e2.Metrics(); m.SessionsLive != 0 {
		t.Fatalf("rejected snapshots left %d live sessions", m.SessionsLive)
	}
}

// forwardRefSnapshot re-encodes a whole-graph ICSS v2 frame with
// instruction 0's first producer pointing forward at instruction 1,
// recomputing the CRC so only the structural checks can catch it.
func forwardRefSnapshot(t *testing.T, frame []byte) []byte {
	t.Helper()
	r := bytes.NewReader(frame[9:]) // past magic+version and CRC
	plen, err := binary.ReadUvarint(r)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), frame[len(frame)-int(plen):]...)
	pr := bytes.NewReader(payload)
	uv := func(k int) {
		for ; k > 0; k-- {
			if _, err := binary.ReadUvarint(pr); err != nil {
				t.Fatal(err)
			}
		}
	}
	skip := func(k int64) {
		if _, err := pr.Seek(k, io.SeekCurrent); err != nil {
			t.Fatal(err)
		}
	}
	blen, err := binary.ReadUvarint(pr)
	if err != nil {
		t.Fatal(err)
	}
	skip(int64(blen)) // bench name
	uv(1 + 7 + 2)     // seed, seven spec ints, build time, cycles
	skip(1)           // kind byte (whole graph)
	uv(1 + 12)        // instruction count, graph config
	skip(1)           // instruction 0: opcode
	uv(1)             // static index
	skip(4)           // flags, data level, fetch level, fetch break
	uv(2)             // RE and CC latencies
	off := len(payload) - pr.Len()
	if payload[off] != 0 {
		t.Fatalf("instruction 0 producer byte %d, want 0 (none)", payload[off])
	}
	payload[off] = 2 // producer = instruction 1, stored +1

	var out bytes.Buffer
	out.Write(frame[:5])
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	out.Write(crc[:])
	out.Write(binary.AppendUvarint(nil, plen))
	out.Write(payload)
	return out.Bytes()
}
