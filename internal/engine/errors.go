package engine

import "fmt"

// ValidationError marks a request the client got wrong — an unknown
// op, a bad category name, a malformed session spec. It exists so the
// daemon can map client mistakes to 400 while every other engine
// failure (a broken build, a faulted simulation) surfaces as the 500
// it really is, instead of masquerading as the client's fault.
type ValidationError struct {
	Msg string
}

func (e *ValidationError) Error() string { return e.Msg }

// errValidation builds a *ValidationError fmt.Errorf-style.
func errValidation(format string, args ...any) error {
	return &ValidationError{Msg: fmt.Sprintf(format, args...)}
}

// SnapshotVersionError reports a snapshot stamped with an ICSS codec
// version this build cannot decode. The router treats it as a schema
// skew between shards (the pushing side is newer), distinct from
// corruption: re-pushing the same bytes can never succeed, so the
// replica is skipped rather than retried.
type SnapshotVersionError struct {
	Version byte
}

func (e *SnapshotVersionError) Error() string {
	return fmt.Sprintf("engine: unsupported snapshot version %d (this build decodes <= %d)",
		e.Version, snapVersionCurrent)
}

// SnapshotChecksumError reports a snapshot payload whose CRC-32C does
// not match the frame header — corruption in transit or at rest. The
// router treats it as retryable: the source session is intact, only
// this copy of the bytes is damaged.
type SnapshotChecksumError struct {
	Want, Got uint32
}

func (e *SnapshotChecksumError) Error() string {
	return fmt.Sprintf("engine: snapshot checksum mismatch (header %08x, payload %08x): corrupt bytes",
		e.Want, e.Got)
}

// SnapshotCorruptError reports a snapshot whose checksum holds but
// whose payload does not decode to a session the walks can trust: a
// field out of range, a producer or leader reference that does not
// point strictly backward, or a graph whose unidealized critical path
// disagrees with the recorded cycle count. Like a checksum failure it
// is the bytes' fault, never the server's.
type SnapshotCorruptError struct {
	Err error
}

func (e *SnapshotCorruptError) Error() string { return e.Err.Error() }

func (e *SnapshotCorruptError) Unwrap() error { return e.Err }
