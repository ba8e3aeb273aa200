package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// resealSnapshot recomputes a frame's CRC-32C over whatever payload
// bytes it carries, so fuzzed payloads get past the checksum and into
// the structural decoder.
func resealSnapshot(frame []byte) []byte {
	if len(frame) < 9 {
		return frame
	}
	plen, k := binary.Uvarint(frame[9:])
	if k <= 0 {
		return frame
	}
	payload := frame[9+k:]
	if uint64(len(payload)) > plen {
		payload = payload[:plen]
	}
	out := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(out[5:9], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// FuzzRestoreSession drives the /restore decoder with mutated
// whole-graph and windowed snapshots, half of them resealed with a
// valid checksum. Whatever it accepts must be the one encoding of its
// session: re-snapshotting reproduces the input byte for byte (a
// version-1 input reproduces as its version-2 form).
func FuzzRestoreSession(f *testing.F) {
	e := New(Config{Workers: 1})
	f.Cleanup(e.Close)
	for _, spec := range []SessionSpec{
		{Bench: "gzip", TraceLen: 60, Warmup: 100},
		{Bench: "gzip", TraceLen: 60, Warmup: 100, WindowInsts: 32},
	} {
		frame := goldenSnapshot(f, e, spec)
		f.Add(frame, false)
		f.Add(frame, true)
	}

	f.Fuzz(func(t *testing.T, frame []byte, reseal bool) {
		if reseal {
			frame = resealSnapshot(frame)
		}
		s, err := readSnapshot(context.Background(), bytes.NewReader(frame))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeSnapshot(context.Background(), &out, s); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		want := out.Bytes()
		if frame[4] == snapVersion1 {
			want = snapshotV1(t, want)
		}
		if !bytes.Equal(want, frame) {
			t.Fatalf("accepted %d-byte snapshot re-encodes to %d different bytes", len(frame), len(want))
		}
	})
}
