package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

func reader(b []byte) *Reader { return NewReader(bytes.NewReader(b), "test") }

func TestUvarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1 << 32, math.MaxUint64}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, v := range vals {
		w.Uvarint(v)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := reader(buf.Bytes())
	for _, want := range vals {
		if got := r.Uvarint(math.MaxUint64); got != want {
			t.Fatalf("got %d, want %d", got, want)
		}
	}
	r.End()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects pins each way a field can be refused, and that
// every one of them is a *CorruptError naming the codec.
func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name, want string
		in         []byte
		read       func(*Reader)
	}{
		{"over bound", "exceeds bound", []byte{0x05}, func(r *Reader) { r.Uvarint(4) }},
		{"non-minimal varint", "minimally", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint(10) }},
		{"varint overflow", "overflows", bytes.Repeat([]byte{0xff}, 10), func(r *Reader) { r.Uvarint(math.MaxUint64) }},
		{"truncated varint", "truncated", []byte{0x80}, func(r *Reader) { r.Uvarint(10) }},
		{"truncated u64", "truncated", []byte{1, 2, 3}, func(r *Reader) { r.U64() }},
		{"truncated run", "truncated", []byte{0x05, 'a', 'b'}, func(r *Reader) { r.String(10) }},
		{"huge claimed run", "truncated", []byte{'a', 'b'}, func(r *Reader) { r.Bytes(1 << 30) }},
		{"truncated typed run", "truncated", []byte{1, 2}, func(r *Reader) { Run[byte](r, 1<<20) }},
		{"bad magic", "bad magic", []byte("ICXX\x01"), func(r *Reader) { r.Magic("ICTR") }},
		{"short magic", "magic", []byte("IC"), func(r *Reader) { r.Magic("ICTR") }},
		{"trailing bytes", "trailing", []byte{0x01, 0x02}, func(r *Reader) { r.Byte(); r.End() }},
		{"structural", "no samples", nil, func(r *Reader) { r.Fail("no samples") }},
	}
	for _, c := range cases {
		r := reader(c.in)
		c.read(r)
		var ce *CorruptError
		if err := r.Err(); !errors.As(err, &ce) || ce.Codec != "test" || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %T %v, want *CorruptError mentioning %q", c.name, err, err, c.want)
		}
	}
}

func TestStickyFirstError(t *testing.T) {
	r := reader([]byte{0x05, 0x01})
	r.Uvarint(4)
	first := r.Err()
	r.Fail("later")
	r.Unsupported(9, 1)
	if r.Ok() || r.Err() != first || !strings.Contains(first.Error(), "exceeds bound") {
		t.Fatalf("first error not kept: %v", r.Err())
	}
}

func TestVersionAndChecksumErrors(t *testing.T) {
	r := reader([]byte("ICTR\x07"))
	if v := r.Magic("ICTR"); v != 7 {
		t.Fatalf("version %d", v)
	}
	var ve *VersionError
	if err := r.Unsupported(7, 1); !errors.As(err, &ve) || ve.Version != 7 || ve.Newest != 1 {
		t.Fatalf("got %v, want *VersionError", err)
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Checksummed([]byte("payload"))
	w.Flush()
	if got := reader(buf.Bytes()).Checksummed(64); string(got) != "payload" {
		t.Fatalf("round trip: %q", got)
	}
	damaged := append([]byte(nil), buf.Bytes()...)
	damaged[len(damaged)-1] ^= 1
	r = reader(damaged)
	var cs *ChecksumError
	if r.Checksummed(64) != nil || !errors.As(r.Err(), &cs) || cs.Want == cs.Got {
		t.Fatalf("got %v, want *ChecksumError", r.Err())
	}
	var ce *CorruptError
	if errors.As(r.Err(), &ce) {
		t.Fatal("checksum mismatch also reads as corruption")
	}
}

// TestTransportErrorsPassThrough: a failing source is not corrupt
// input, so its error is wrapped, not classified.
func TestTransportErrorsPassThrough(t *testing.T) {
	boom := errors.New("connection reset")
	r := NewReader(iotest.ErrReader(boom), "test")
	r.Byte()
	var ce *CorruptError
	if err := r.Err(); !errors.Is(err, boom) || errors.As(err, &ce) {
		t.Fatalf("got %v", err)
	}
}
