package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"icost/internal/isa"
	"icost/internal/program"
)

// encodeValid builds a small valid trace and returns its encoding.
func encodeValid(tb testing.TB) []byte {
	tb.Helper()
	b := program.NewBuilder()
	b.Label("top")
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 1, Src1: 2, Src2: isa.NoReg})
	b.Emit(isa.Inst{Op: isa.OpIntShort, Dst: 3, Src1: 1, Src2: 1})
	b.BranchToLabel(isa.OpBranch, 3, isa.RZero, "top")
	p, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	tr := &Trace{
		Prog: p,
		Name: "corrupt-seed",
		Insts: []DynInst{
			{SIdx: 0, Addr: 0x10000000, Target: p.PCOf(1)},
			{SIdx: 1, Target: p.PCOf(2)},
			{SIdx: 2, Taken: true, Target: p.PCOf(0)},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecode complements FuzzReadTrace: instead of feeding raw bytes,
// it applies a structured corruption (xor one byte, then truncate) to
// a known-valid encoding, so the fuzzer spends its budget deep inside
// the decoder rather than bouncing off the magic check.
func FuzzDecode(f *testing.F) {
	valid := encodeValid(f)
	f.Add(uint(0), byte(0x00), uint(len(valid)))
	f.Add(uint(5), byte(0xff), uint(len(valid)))
	f.Add(uint(len(valid)-1), byte(0x01), uint(len(valid)))
	f.Add(uint(9), byte(0x80), uint(12))

	f.Fuzz(func(t *testing.T, off uint, x byte, keep uint) {
		data := append([]byte(nil), valid...)
		if int(off) < len(data) {
			data[off] ^= x
		}
		if int(keep) < len(data) {
			data = data[:keep]
		}
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever survives corruption must still be a valid trace.
		if err := got.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid trace (off=%d x=%#x keep=%d): %v",
				off, x, keep, err)
		}
	})
}

// TestCorruptInputs pins decoder behavior on specific corruption
// shapes found worth guarding (regression cases for FuzzDecode finds
// and for the field bounds Read passes to the wire reader).
func TestCorruptInputs(t *testing.T) {
	valid := encodeValid(t)
	// The name "corrupt-seed" starts right after the 5-byte magic and
	// its 1-byte length varint.
	nameOff := len(traceMagic)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string // substring of the expected error
	}{
		{"empty", func(b []byte) []byte { return nil }, "magic"},
		{"short magic", func(b []byte) []byte { return b[:3] }, "magic"},
		{"wrong magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}, "bad magic"},
		{"wrong version", func(b []byte) []byte {
			b[4] = 2
			return b
		}, "bad magic"},
		{"truncated name", func(b []byte) []byte { return b[:nameOff+3] }, ""},
		{"huge name length", func(b []byte) []byte {
			// Replace the 1-byte name length with a maxed varint.
			var v [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(v[:], 1<<40)
			return append(append(append([]byte(nil), b[:nameOff]...), v[:n]...), b[nameOff+1:]...)
		}, "exceeds bound"},
		{"truncated mid-static", func(b []byte) []byte { return b[:nameOff+1+len("corrupt-seed")+6] }, ""},
		{"truncated at end", func(b []byte) []byte { return b[:len(b)-4] }, ""},
		{"empty program", func(b []byte) []byte {
			// magic + empty name + 0 static + 0 blocks + 1 dynamic:
			// rejected when the embedded empty program fails validation.
			out := append([]byte(nil), traceMagic[:]...)
			out = append(out, 0, 0, 0, 1)
			return out
		}, "invalid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			_, err := Read(bytes.NewReader(data))
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestDecodeBoundedAllocation checks that a stream claiming huge
// counts but carrying few bytes fails fast instead of allocating the
// claimed size (the incremental-growth defense in Read).
func TestDecodeBoundedAllocation(t *testing.T) {
	// magic + empty name + static count 2^25 (within bound), no bodies.
	data := append([]byte(nil), traceMagic[:]...)
	data = append(data, 0)
	var v [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(v[:], 1<<25)
	data = append(data, v[:n]...)

	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated huge-count stream accepted")
	}
}
