package profiler

import (
	"io"
	"sort"

	"icost/internal/cache"
	"icost/internal/isa"
	"icost/internal/wire"
)

// Binary sample format: what the performance-monitoring hardware's
// buffer drains would contain on a real system, so collection and
// analysis can run on different machines (or at different times).
// Little-endian; versioned by the magic's last byte.

// Sample format versions: codecver checks that ReadSamples dispatches
// each one and that sampleMagic stamps the newest.
//
//lint:codec icsp
const (
	sampleVersion1       = 1 // initial format
	sampleVersionCurrent = sampleVersion1
)

//lint:codec-encode icsp
var sampleMagic = [5]byte{'I', 'C', 'S', 'P', sampleVersionCurrent}

// WriteSamples serializes s.
func WriteSamples(w io.Writer, s *Samples) error {
	bw := wire.NewWriter(w)
	bw.Write(sampleMagic[:])
	bw.Uvarint(uint64(s.Insts))

	bw.Uvarint(uint64(len(s.Sigs)))
	for _, sig := range s.Sigs {
		bw.U64(uint64(sig.StartPC))
		writeBits(bw, sig.Bits)
	}

	// Details, in sorted PC order for deterministic output.
	pcs := make([]isa.Addr, 0, len(s.Details))
	total := 0
	for pc, ds := range s.Details {
		pcs = append(pcs, pc)
		total += len(ds)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	bw.Uvarint(uint64(total))
	for _, pc := range pcs {
		for _, d := range s.Details[pc] {
			bw.U64(uint64(d.PC))
			bw.WriteByte(byte(d.Info.Op))
			bw.Uvarint(uint64(d.Info.SIdx + 1)) // -1 becomes 0
			bw.Flags(d.Info.Mispredict, d.Info.DTLBMiss, d.Info.ITLBMiss, d.Taken)
			bw.WriteByte(byte(d.Info.DataLevel))
			bw.WriteByte(byte(d.Info.ILevel))
			bw.Uvarint(uint64(d.RELat))
			bw.U64(uint64(d.Target))
			bw.Uvarint(uint64(d.PPDelta))
			writeBits(bw, d.Before)
			writeBits(bw, d.After)
		}
	}
	return bw.Flush()
}

func writeBits(bw wire.Writer, bits []SigBits) {
	bw.Uvarint(uint64(len(bits)))
	for _, b := range bits {
		bw.WriteByte(byte(b))
	}
}

// ReadSamples deserializes samples written by WriteSamples.
//
//lint:codec-decode icsp
func ReadSamples(r io.Reader) (*Samples, error) {
	br := wire.NewReader(r, "profiler")
	switch v := br.Magic("ICSP"); v {
	case sampleVersion1:
	default:
		return nil, br.Unsupported(v, sampleVersionCurrent)
	}
	s := &Samples{Details: map[isa.Addr][]DetailedSample{}, Insts: int(br.Uvarint(1 << 31))}

	nSigs := br.Uvarint(1 << 24)
	for i := uint64(0); i < nSigs && br.Ok(); i++ {
		pc := isa.Addr(br.U64())
		s.Sigs = append(s.Sigs, SignatureSample{StartPC: pc, Bits: wire.Run[SigBits](br, br.Uvarint(1<<20))})
	}

	nDetails := br.Uvarint(1 << 28)
	for i := uint64(0); i < nDetails && br.Ok(); i++ {
		var d DetailedSample
		d.PC = isa.Addr(br.U64())
		if d.Info.Op = isa.Op(br.Byte()); d.Info.Op >= isa.NumOps {
			return nil, br.Fail("invalid opcode %d", d.Info.Op)
		}
		// Bound is MaxInt32, not 1<<31: a stored value of exactly 1<<31
		// would wrap int32(sidx)-1 around to MaxInt32 and the sample
		// could never re-encode canonically.
		d.Info.SIdx = int32(br.Uvarint(1<<31-1)) - 1
		flags := br.Byte()
		d.Info.Mispredict = flags&1 != 0
		d.Info.DTLBMiss = flags&2 != 0
		d.Info.ITLBMiss = flags&4 != 0
		d.Taken = flags&8 != 0
		data, inst := br.Byte(), br.Byte()
		if data > byte(cache.LevelMem) || inst > byte(cache.LevelMem) {
			return nil, br.Fail("invalid cache level")
		}
		d.Info.DataLevel, d.Info.ILevel = cache.Level(data), cache.Level(inst)
		d.RELat = int32(br.Uvarint(1 << 30))
		d.Target = isa.Addr(br.U64())
		d.PPDelta = int32(br.Uvarint(1 << 30))
		d.Before = wire.Run[SigBits](br, br.Uvarint(1<<16))
		d.After = wire.Run[SigBits](br, br.Uvarint(1<<16))
		s.Details[d.PC] = append(s.Details[d.PC], d)
	}
	if !br.Ok() {
		return nil, br.Err()
	}
	if len(s.Sigs) == 0 {
		return nil, br.Fail("sample file has no signature samples")
	}
	return s, nil
}
