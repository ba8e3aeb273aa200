package fleet

import (
	"bytes"
	"testing"

	"icost/internal/cache"
	"icost/internal/depgraph"
	"icost/internal/isa"
	"icost/internal/profiler"
)

// tinyBatch is a hand-built sample batch small enough to fuzz
// quickly, with every field the sample format carries set.
func tinyBatch(pc isa.Addr) *profiler.Samples {
	return &profiler.Samples{
		Insts: 4096,
		Sigs: []profiler.SignatureSample{
			{StartPC: pc, Bits: []profiler.SigBits{0, profiler.SigMiss, profiler.SigCtrlMem}},
		},
		Details: map[isa.Addr][]profiler.DetailedSample{
			pc + 8: {{
				PC: pc + 8,
				Info: depgraph.InstInfo{
					Op: isa.OpLoad, SIdx: 2, DataLevel: cache.LevelMem, DTLBMiss: true,
					ILevel: cache.LevelL1,
				},
				RELat: 180, Target: pc + 12, PPDelta: 3,
				Before: []profiler.SigBits{profiler.SigMiss}, After: []profiler.SigBits{0},
			}},
			pc + 16: {{
				PC:     pc + 16,
				Info:   depgraph.InstInfo{Op: isa.OpBranch, SIdx: -1, Mispredict: true},
				Taken:  true,
				Target: pc,
			}},
		},
	}
}

// FuzzReadStream drives the /ingest decoder with mutated two-batch
// streams. Whatever it accepts must be the one encoding of its header
// and batches: re-encoding reproduces the input byte for byte.
func FuzzReadStream(f *testing.F) {
	var seed bytes.Buffer
	h := Header{Binary: "gzip", Seed: 42, Group: "prod", Host: "h"}
	if err := WriteStream(&seed, h, []*profiler.Samples{tinyBatch(0x10000000), tinyBatch(0x10000040)}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var batches []*profiler.Samples
		h, n, err := ReadStream(bytes.NewReader(data), func(_ Header, s *profiler.Samples) error {
			batches = append(batches, s)
			return nil
		})
		if err != nil {
			return
		}
		if n != len(batches) {
			t.Fatalf("reported %d batches, delivered %d", n, len(batches))
		}
		var out bytes.Buffer
		if err := WriteStream(&out, h, batches); err != nil {
			t.Fatalf("accepted stream does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d-byte stream re-encodes to %d different bytes", len(data), out.Len())
		}
	})
}
