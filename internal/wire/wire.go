// Package wire is the one toolkit behind icost's binary formats (ICTR
// traces, ICSP samples, ICFS streams, ICSS snapshots). Every varint has
// a bound and one minimal encoding, byte runs grow with the bytes
// present rather than a claimed length, and bad input is a typed error
// whichever codec found it. Reader errors are sticky: the first failure
// is kept and later reads still return values within their bounds, so
// a decoder reads straight through and tests Ok in each loop over a
// claimed count and before each structural decision.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// CorruptError reports input that is truncated, holds a field over its
// bound, or is structurally invalid: always the bytes' fault.
type CorruptError struct {
	Codec string // the decoding package, as it prefixes its errors
	Err   error
}

func (e *CorruptError) Error() string { return e.Codec + ": " + e.Err.Error() }

func (e *CorruptError) Unwrap() error { return e.Err }

// VersionError reports a format version this build cannot decode;
// re-sending the same bytes can never succeed.
type VersionError struct {
	Codec           string
	Version, Newest byte // the input's version, the newest this build decodes
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("%s: bad magic: unsupported format version %d (this build decodes <= %d)",
		e.Codec, e.Version, e.Newest)
}

// ChecksumError reports a frame whose payload fails its CRC-32C:
// damage in transit or at rest, so a fresh copy can succeed.
type ChecksumError struct {
	Codec     string
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("%s: checksum mismatch (header %08x, payload %08x): corrupt bytes",
		e.Codec, e.Want, e.Got)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer encodes fields onto a buffered stream; bufio keeps the first
// write error, so Flush reports it.
type Writer struct{ *bufio.Writer }

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) Writer { return Writer{bufio.NewWriter(w)} }

// Uvarint writes v as a minimal unsigned varint.
func (w Writer) Uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.Write(buf[:binary.PutUvarint(buf[:], v)])
}

// U64 writes v as 8 little-endian bytes.
func (w Writer) U64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Write(buf[:])
}

// String writes s with a uvarint length prefix.
func (w Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.WriteString(s)
}

// Flags writes bits packed into one byte, the first as bit 0.
func (w Writer) Flags(bits ...bool) {
	var b byte
	for i, set := range bits {
		if set {
			b |= 1 << i
		}
	}
	w.WriteByte(b)
}

// Checksummed writes payload framed as its 4-byte little-endian
// CRC-32C, its uvarint length, then the payload.
func (w Writer) Checksummed(payload []byte) {
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	w.Write(crc[:])
	w.Uvarint(uint64(len(payload)))
	w.Write(payload)
}

// Reader decodes fields from an untrusted stream with a sticky error.
type Reader struct {
	br    *bufio.Reader
	codec string
	err   error
}

// NewReader returns a Reader over r whose errors name codec.
func NewReader(r io.Reader, codec string) *Reader {
	return &Reader{br: bufio.NewReader(r), codec: codec}
}

// Ok reports whether every read so far succeeded.
func (r *Reader) Ok() bool { return r.err == nil }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// fail keeps a read error as the first failure: running out of input
// is corruption, any other error is the transport's and passes through.
func (r *Reader) fail(err error) {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		r.Fail("truncated: %w", err)
	} else if r.err == nil {
		r.err = fmt.Errorf("%s: %w", r.codec, err)
	}
}

// Fail records a structural failure as a *CorruptError unless a
// failure is already kept, and returns the first failure.
func (r *Reader) Fail(format string, args ...any) error {
	if r.err == nil {
		r.err = &CorruptError{Codec: r.codec, Err: fmt.Errorf(format, args...)}
	}
	return r.err
}

// Unsupported records a *VersionError for a version byte the codec's
// dispatch does not know unless a failure (a bad magic) is already
// kept, and returns the first failure.
func (r *Reader) Unsupported(version, newest byte) error {
	if r.err == nil {
		r.err = &VersionError{Codec: r.codec, Version: version, Newest: newest}
	}
	return r.err
}

// Magic reads a 4-byte format tag and returns the version byte after
// it, for the codec's dispatch switch.
func (r *Reader) Magic(tag string) byte {
	var m [5]byte
	if _, err := io.ReadFull(r.br, m[:]); err != nil {
		r.fail(fmt.Errorf("reading magic: %w", err))
		return 0
	}
	if string(m[:4]) != tag {
		r.Fail("bad magic %q, want %q", m[:4], tag)
		return 0
	}
	return m[4]
}

// Byte reads one byte: the per-byte hot path, one direct bufio call
// with no check of the sticky error.
func (r *Reader) Byte() byte {
	b, err := r.br.ReadByte()
	if err != nil {
		r.fail(err)
	}
	return b
}

// Full fills p.
func (r *Reader) Full(p []byte) {
	if _, err := io.ReadFull(r.br, p); err != nil {
		r.fail(err)
	}
}

// U64 reads 8 little-endian bytes.
func (r *Reader) U64() uint64 {
	var b [8]byte
	r.Full(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Uvarint reads a minimally encoded unsigned varint and rejects values
// above max; a failed read returns 0.
func (r *Reader) Uvarint(max uint64) uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b, err := r.br.ReadByte()
		if err != nil {
			r.fail(err)
			return 0
		}
		v |= uint64(b&0x7f) << shift
		switch {
		case shift == 63 && b > 1:
			r.Fail("varint overflows 64 bits")
		case b >= 0x80:
			continue
		case b == 0 && shift > 0:
			r.Fail("varint is not minimally encoded")
		case v > max:
			r.Fail("field %d exceeds bound %d", v, max)
		default:
			return v
		}
		return 0
	}
}

// Bytes reads an n-byte run into a buffer that starts at 64 KiB and
// doubles as the bytes arrive, so a claimed length costs memory only
// once the input backs it. A failed read returns nil.
func (r *Reader) Bytes(n uint64) []byte {
	const step = 64 << 10
	buf := make([]byte, 0, min(n, step))
	for uint64(len(buf)) < n {
		k := int(min(n-uint64(len(buf)), max(step, uint64(len(buf)))))
		buf = slices.Grow(buf, k)[:len(buf)+k]
		if _, err := io.ReadFull(r.br, buf[len(buf)-k:]); err != nil {
			r.fail(err)
			return nil
		}
	}
	return buf
}

// Run reads an n-entry run of a byte type, one direct bufio call per
// entry, growing with the bytes present. A failed read returns nil.
func Run[T ~byte](r *Reader, n uint64) []T {
	run := make([]T, 0, min(n, 4096))
	for uint64(len(run)) < n {
		b, err := r.br.ReadByte()
		if err != nil {
			r.fail(err)
			return nil
		}
		run = append(run, T(b))
	}
	return run
}

// String reads a uvarint-length-prefixed string of at most max bytes.
func (r *Reader) String(max uint64) string { return string(r.Bytes(r.Uvarint(max))) }

// Checksummed reads a frame written by Writer.Checksummed whose payload
// is at most max bytes; a CRC mismatch is a *ChecksumError. A failed
// read returns nil.
func (r *Reader) Checksummed(max uint64) []byte {
	var crc [4]byte
	r.Full(crc[:])
	payload := r.Bytes(r.Uvarint(max))
	if want, got := binary.LittleEndian.Uint32(crc[:]), crc32.Checksum(payload, castagnoli); r.err == nil && got != want {
		r.err = &ChecksumError{Codec: r.codec, Want: want, Got: got}
	}
	if r.err != nil {
		return nil
	}
	return payload
}

// End records trailing input as corruption: a decoder calls it after
// its format's last field.
func (r *Reader) End() {
	if _, err := r.br.ReadByte(); err == nil {
		r.Fail("trailing bytes after the last field")
	} else if err != io.EOF {
		r.fail(err)
	}
}
