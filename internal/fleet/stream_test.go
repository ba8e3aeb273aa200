package fleet

import (
	"bytes"
	"errors"
	"testing"

	"icost/internal/profiler"
	"icost/internal/wire"
)

func TestStreamRoundTrip(t *testing.T) {
	batches := []*profiler.Samples{
		hostBatch(t, "gzip", 42, 7),
		hostBatch(t, "gzip", 42, 8),
	}
	h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "host-00"}
	var buf bytes.Buffer
	if err := WriteStream(&buf, h, batches); err != nil {
		t.Fatal(err)
	}

	var got []*profiler.Samples
	gh, n, err := ReadStream(bytes.NewReader(buf.Bytes()), func(hh Header, s *profiler.Samples) error {
		got = append(got, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gh != h {
		t.Fatalf("header round-trip: got %+v, want %+v", gh, h)
	}
	if n != len(batches) || len(got) != len(batches) {
		t.Fatalf("delivered %d batches (fn saw %d), want %d", n, len(got), len(batches))
	}
	// WriteSamples is deterministic (sorted PC order), so comparing
	// re-encodings is an exact semantic round-trip check that ignores
	// nil-vs-empty slice normalization in the decoder.
	enc := func(s *profiler.Samples) []byte {
		var b bytes.Buffer
		if err := profiler.WriteSamples(&b, s); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for i := range batches {
		if !bytes.Equal(enc(got[i]), enc(batches[i])) {
			t.Fatalf("batch %d did not round-trip", i)
		}
	}
}

// TestPeekHeader: the router's routing peek decodes exactly the
// header — O(header), not O(stream) — agrees with ReadStream, and the
// peeked-at bytes remain a fully readable stream (the router forwards
// the body verbatim after peeking a copy).
func TestPeekHeader(t *testing.T) {
	h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "host-07"}
	var buf bytes.Buffer
	if err := WriteStream(&buf, h, []*profiler.Samples{hostBatch(t, "gzip", 42, 7)}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	got, err := PeekHeader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("PeekHeader = %+v, want %+v", got, h)
	}
	if got.Key() != h.Key() {
		t.Fatalf("peeked key %v, want %v", got.Key(), h.Key())
	}

	// The peek must not require the payload: the header alone, with
	// every batch byte chopped off, still peeks.
	rh, _, err := ReadStream(bytes.NewReader(raw), func(Header, *profiler.Samples) error { return nil })
	if err != nil || rh != h {
		t.Fatalf("full read after peek: header %+v, err %v", rh, err)
	}
	for cut := len(raw) - 1; cut > 64; cut /= 2 {
		if _, err := PeekHeader(bytes.NewReader(raw[:cut])); err != nil {
			t.Fatalf("peek of %d-byte prefix failed: %v", cut, err)
		}
	}

	// Garbage is a clean error, not a panic.
	if _, err := PeekHeader(bytes.NewReader([]byte("not a stream"))); err == nil {
		t.Fatal("PeekHeader accepted garbage")
	}
}

func TestStreamHeaderValidation(t *testing.T) {
	s := hostBatch(t, "gzip", 42, 7)
	bads := []Header{
		{Binary: "", Group: "prod"},
		{Binary: "gzip", Group: ""},
		{Binary: string(make([]byte, maxNameLen+1)), Group: "prod"},
	}
	for i, h := range bads {
		if _, err := NewStreamWriter(&bytes.Buffer{}, h); err == nil {
			t.Errorf("writer accepted bad header %d: %+v", i, h)
		}
		// The read side enforces the same rules on hand-built streams.
		var buf bytes.Buffer
		bw := wire.NewWriter(&buf)
		bw.Write(streamMagic[:])
		bw.String(h.Binary)
		bw.Uvarint(h.Seed)
		bw.String(h.Group)
		bw.String(h.Host)
		bw.Flush()
		_, _, err := ReadStream(&buf, drop)
		var verr *ValidationError
		var cerr *wire.CorruptError
		if len(h.Binary) > maxNameLen {
			// An over-long string fails its wire length bound before
			// header validation sees it.
			if !errors.As(err, &cerr) {
				t.Errorf("reader accepted bad header %d: err=%v", i, err)
			}
		} else if !errors.As(err, &verr) {
			t.Errorf("reader accepted bad header %d: err=%v", i, err)
		}
	}
	_ = s
}

func drop(Header, *profiler.Samples) error { return nil }

func TestStreamBadMagic(t *testing.T) {
	var vererr *wire.VersionError
	if _, _, err := ReadStream(bytes.NewReader([]byte("ICFS\x02xxxx")), drop); !errors.As(err, &vererr) {
		t.Fatalf("wrong version accepted: %v", err)
	}
	var verr *wire.CorruptError
	if _, _, err := ReadStream(bytes.NewReader([]byte("NOPE")), drop); !errors.As(err, &verr) {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

// TestStreamTruncation cuts a valid two-batch stream at every 11th
// byte: a truncated stream must always error, and must never claim
// more complete batches than the cut allows.
func TestStreamTruncation(t *testing.T) {
	batches := []*profiler.Samples{
		hostBatch(t, "gzip", 42, 7),
		hostBatch(t, "gzip", 42, 8),
	}
	h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "h"}
	var buf bytes.Buffer
	if err := WriteStream(&buf, h, batches); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 11 {
		n := 0
		_, got, err := ReadStream(bytes.NewReader(full[:cut]), func(Header, *profiler.Samples) error {
			n++
			return nil
		})
		if err == nil {
			t.Fatalf("cut at %d/%d decoded cleanly", cut, len(full))
		}
		if got != n || got > len(batches) {
			t.Fatalf("cut at %d: reported %d batches, fn saw %d", cut, got, n)
		}
	}
}

func TestStreamTrailerMismatch(t *testing.T) {
	h := Header{Binary: "gzip", Seed: 42, Group: "prod"}
	var buf bytes.Buffer
	if err := WriteStream(&buf, h, []*profiler.Samples{hostBatch(t, "gzip", 42, 7)}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The trailer count of a one-batch stream is the single final
	// byte uvarint(1); bump it.
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-1] = 3
	var verr *wire.CorruptError
	if _, n, err := ReadStream(bytes.NewReader(corrupt), drop); !errors.As(err, &verr) || n != 1 {
		t.Fatalf("trailer mismatch: n=%d err=%v", n, err)
	}
}

func TestStreamFnErrorAborts(t *testing.T) {
	h := Header{Binary: "gzip", Seed: 42, Group: "prod"}
	var buf bytes.Buffer
	err := WriteStream(&buf, h, []*profiler.Samples{
		hostBatch(t, "gzip", 42, 7),
		hostBatch(t, "gzip", 42, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sink full")
	calls := 0
	_, n, err := ReadStream(bytes.NewReader(buf.Bytes()), func(Header, *profiler.Samples) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("fn error not propagated: %v", err)
	}
	if calls != 1 || n != 0 {
		t.Fatalf("fn called %d times, %d batches reported delivered", calls, n)
	}
}

// TestStreamFrameSlack hand-builds a record whose declared length
// exceeds the encoded batch: the reader must reject the disagreement
// rather than silently skipping bytes.
func TestStreamFrameSlack(t *testing.T) {
	var payload bytes.Buffer
	if err := profiler.WriteSamples(&payload, hostBatch(t, "gzip", 42, 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw := wire.NewWriter(&buf)
	bw.Write(streamMagic[:])
	bw.String("gzip")
	bw.Uvarint(42)
	bw.String("prod")
	bw.String("h")
	bw.WriteByte(recBatch)
	bw.Uvarint(uint64(payload.Len() + 3))
	bw.Write(payload.Bytes())
	bw.WriteString("xxx")
	bw.WriteByte(recEnd)
	bw.Uvarint(1)
	bw.Flush()

	var verr *wire.CorruptError
	if _, _, err := ReadStream(&buf, drop); !errors.As(err, &verr) {
		t.Fatalf("frame slack accepted: %v", err)
	}
}

func TestStreamUnknownRecord(t *testing.T) {
	var buf bytes.Buffer
	bw := wire.NewWriter(&buf)
	bw.Write(streamMagic[:])
	bw.String("gzip")
	bw.Uvarint(42)
	bw.String("prod")
	bw.String("h")
	bw.WriteByte('Z')
	bw.Flush()
	var verr *wire.CorruptError
	if _, _, err := ReadStream(&buf, drop); !errors.As(err, &verr) {
		t.Fatalf("unknown record accepted: %v", err)
	}
}

func TestStreamWriterAfterClose(t *testing.T) {
	sw, err := NewStreamWriter(&bytes.Buffer{}, Header{Binary: "gzip", Group: "prod"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
	if err := sw.WriteBatch(hostBatch(t, "gzip", 42, 7)); err == nil {
		t.Fatal("WriteBatch after Close accepted")
	}
}
