package fleet

import (
	"bytes"
	"fmt"
	"io"

	"icost/internal/profiler"
	"icost/internal/wire"
)

// Binary ingestion stream: what a host's collection agent ships to
// the service. The payload reuses the profiler's sample framing
// (WriteSamples/ReadSamples) unchanged — each batch is one PMU buffer
// drain — wrapped in a versioned stream header that names the binary
// and the host, so collection agents and the service can evolve
// independently of the sample format.
//
//	magic  "ICFS" + version byte
//	header binary name, seed, host group, host id (uvarint-length strings)
//	record 'B' + uvarint payload length + WriteSamples payload   (repeated)
//	record 'E' + uvarint batch count                             (trailer)
//
// The trailer's batch count lets the reader distinguish a complete
// stream from one truncated mid-flight (a host that died while
// sending); truncated streams keep every batch that arrived whole —
// lossy collection is the §5 contract.

// Stream format versions. A new version needs a constant here AND a
// dispatch case in ReadStream — codecver enforces both, and that the
// writer stamps the newest version.
//
//lint:codec icfs
const (
	streamVersion1       = 1 // initial wire format
	streamVersionCurrent = streamVersion1
)

// streamMagic is the header every written stream starts with: the
// four ICFS bytes plus the current format version.
//
//lint:codec-encode icfs
var streamMagic = [5]byte{'I', 'C', 'F', 'S', streamVersionCurrent}

const (
	recBatch = 'B'
	recEnd   = 'E'

	// maxNameLen bounds the header strings; maxBatchLen bounds one
	// batch's encoded payload (64 MiB is far beyond any real PMU
	// drain).
	maxNameLen  = 1 << 12
	maxBatchLen = 1 << 26
)

// Header names the stream's origin: which binary the samples observe,
// which slice of the fleet sent them, and which host.
type Header struct {
	Binary string
	Seed   uint64
	Group  string
	Host   string
}

// Key returns the aggregate key the stream's batches merge into.
func (h Header) Key() Key { return Key{Binary: h.Binary, Seed: h.Seed, Group: h.Group} }

// validate rejects malformed headers before any batch is parsed.
func (h Header) validate() error {
	switch {
	case h.Binary == "":
		return errValidation("fleet: stream header needs a binary name")
	case h.Group == "":
		return errValidation("fleet: stream header needs a host group")
	case len(h.Binary) > maxNameLen || len(h.Group) > maxNameLen || len(h.Host) > maxNameLen:
		return errValidation("fleet: stream header string exceeds %d bytes", maxNameLen)
	}
	return nil
}

// StreamWriter frames sample batches onto one ingestion stream.
type StreamWriter struct {
	w       wire.Writer
	buf     bytes.Buffer
	batches int
	closed  bool
}

// NewStreamWriter writes the stream header and returns a writer ready
// for batches. Close writes the trailer.
func NewStreamWriter(w io.Writer, h Header) (*StreamWriter, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	bw := wire.NewWriter(w)
	bw.Write(streamMagic[:])
	bw.String(h.Binary)
	bw.Uvarint(h.Seed)
	bw.String(h.Group)
	bw.String(h.Host)
	return &StreamWriter{w: bw}, nil
}

// WriteBatch frames one sample batch.
func (sw *StreamWriter) WriteBatch(s *profiler.Samples) error {
	if sw.closed {
		return fmt.Errorf("fleet: WriteBatch after Close")
	}
	sw.buf.Reset()
	if err := profiler.WriteSamples(&sw.buf, s); err != nil {
		return err
	}
	if sw.buf.Len() > maxBatchLen {
		return fmt.Errorf("fleet: batch of %d bytes exceeds %d", sw.buf.Len(), maxBatchLen)
	}
	sw.w.WriteByte(recBatch)
	sw.w.Uvarint(uint64(sw.buf.Len()))
	if _, err := sw.w.Write(sw.buf.Bytes()); err != nil {
		return err
	}
	sw.batches++
	return nil
}

// Close writes the trailer and flushes. The writer is unusable after.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	sw.w.WriteByte(recEnd)
	sw.w.Uvarint(uint64(sw.batches))
	return sw.w.Flush()
}

// WriteStream is the one-shot convenience: header, every batch, and
// the trailer in one call.
func WriteStream(w io.Writer, h Header, batches []*profiler.Samples) error {
	sw, err := NewStreamWriter(w, h)
	if err != nil {
		return err
	}
	for _, s := range batches {
		if err := sw.WriteBatch(s); err != nil {
			return err
		}
	}
	return sw.Close()
}

// ReadStream decodes an ingestion stream, invoking fn with the
// stream's header and each batch as it arrives (streaming — one batch
// frame is held at a time). It returns the header, the number of
// complete batches delivered, and the first error: a fn error aborts
// the stream, malformed bytes are a *wire.CorruptError reported
// alongside the batches already delivered. The header is valid
// whenever err is nil or the failure happened after the header parsed.
func ReadStream(r io.Reader, fn func(Header, *profiler.Samples) error) (Header, int, error) {
	br := wire.NewReader(r, "fleet")
	h, err := readHeader(br)
	if err != nil {
		return h, 0, err
	}

	n := 0
	for {
		rec := br.Byte()
		if !br.Ok() {
			return h, n, br.Err()
		}
		switch rec {
		case recBatch:
			frame := br.Bytes(br.Uvarint(maxBatchLen))
			if !br.Ok() {
				return h, n, br.Err()
			}
			s, err := profiler.ReadSamples(bytes.NewReader(frame))
			if err != nil {
				return h, n, fmt.Errorf("fleet: batch %d: %w", n, err)
			}
			// A frame must be exactly the canonical encoding of its
			// batch: bytes the decoder skipped (slack past the samples,
			// unused flag bits, details out of PC order) would let two
			// different frames stand for the same batch.
			cw := canonWriter{rest: frame, same: true}
			if err := profiler.WriteSamples(&cw, s); err != nil {
				return h, n, fmt.Errorf("fleet: batch %d: %w", n, err)
			}
			if !cw.same || len(cw.rest) > 0 {
				return h, n, br.Fail("batch %d: frame of %d bytes is not the canonical encoding of its samples", n, len(frame))
			}
			if err := fn(h, s); err != nil {
				return h, n, err
			}
			n++
		case recEnd:
			if want := br.Uvarint(1 << 32); br.Ok() && want != uint64(n) {
				return h, n, br.Fail("trailer says %d batches, stream carried %d", want, n)
			}
			br.End()
			return h, n, br.Err()
		default:
			return h, n, br.Fail("unknown record type %#x", rec)
		}
	}
}

// readHeader decodes the stream magic, version and header from br,
// leaving it positioned at the first record byte. Both ReadStream and
// PeekHeader enter the format through it, so the version dispatch
// lives here.
//
//lint:codec-decode icfs
func readHeader(br *wire.Reader) (Header, error) {
	var h Header
	switch v := br.Magic("ICFS"); v {
	case streamVersion1:
	default:
		return h, br.Unsupported(v, streamVersionCurrent)
	}
	h.Binary = br.String(maxNameLen)
	h.Seed = br.Uvarint(1 << 63)
	h.Group = br.String(maxNameLen)
	h.Host = br.String(maxNameLen)
	if !br.Ok() {
		return h, br.Err()
	}
	return h, h.validate()
}

// PeekHeader decodes just the stream header from r without touching
// any batch payload. The sharding router uses it to pick the backend
// an /ingest body belongs to — the aggregate key is in the header, so
// routing never pays for sample decoding — before forwarding the
// unconsumed bytes verbatim.
func PeekHeader(r io.Reader) (Header, error) {
	return readHeader(wire.NewReader(r, "fleet"))
}

// canonWriter checks a re-encoding against the frame it must
// reproduce, without keeping it.
type canonWriter struct {
	rest []byte
	same bool
}

func (c *canonWriter) Write(p []byte) (int, error) {
	c.same = c.same && bytes.HasPrefix(c.rest, p)
	c.rest = c.rest[min(len(p), len(c.rest)):]
	return len(p), nil
}
