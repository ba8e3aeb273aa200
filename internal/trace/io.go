package trace

import (
	"io"

	"icost/internal/isa"
	"icost/internal/program"
	"icost/internal/wire"
)

// Binary trace format, so traces can be captured once and analyzed
// many times (or produced by external tools and fed to the
// simulator). Layout, little-endian:
//
//	magic   "ICTR" + version byte
//	name    uvarint len + bytes
//	static  uvarint count, then per instruction:
//	          op u8, dst u8, src1 u8, src2 u8, target u64
//	blocks  uvarint count, then uvarint entry indices
//	dynamic uvarint count, then per instruction:
//	          sidx uvarint, flags u8 (bit0 = taken),
//	          addr u64 (mem ops only), target u64

// Trace format versions: codecver checks that Read dispatches each
// one and that traceMagic stamps the newest.
//
//lint:codec ictr
const (
	traceVersion1       = 1 // initial format
	traceVersionCurrent = traceVersion1
)

//lint:codec-encode ictr
var traceMagic = [5]byte{'I', 'C', 'T', 'R', traceVersionCurrent}

// Write serializes t.
func Write(w io.Writer, t *Trace) error {
	bw := wire.NewWriter(w)
	bw.Write(traceMagic[:])
	bw.String(t.Name)

	bw.Uvarint(uint64(t.Prog.Len()))
	for i := 0; i < t.Prog.Len(); i++ {
		in := t.Prog.At(i)
		bw.WriteByte(byte(in.Op))
		bw.WriteByte(byte(in.Dst))
		bw.WriteByte(byte(in.Src1))
		bw.WriteByte(byte(in.Src2))
		bw.U64(uint64(in.Target))
	}
	blocks := t.Prog.Blocks()
	bw.Uvarint(uint64(len(blocks)))
	for _, b := range blocks {
		bw.Uvarint(uint64(b))
	}

	bw.Uvarint(uint64(t.Len()))
	for i := range t.Insts {
		d := &t.Insts[i]
		bw.Uvarint(uint64(d.SIdx))
		bw.Flags(d.Taken)
		if t.Prog.At(int(d.SIdx)).Op.IsMem() {
			bw.U64(uint64(d.Addr))
		}
		bw.U64(uint64(d.Target))
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write and validates it.
//
//lint:codec-decode ictr
func Read(r io.Reader) (*Trace, error) {
	br := wire.NewReader(r, "trace")
	switch v := br.Magic("ICTR"); v {
	case traceVersion1:
	default:
		return nil, br.Unsupported(v, traceVersionCurrent)
	}
	name := br.String(1 << 16)

	// Slices grow as records arrive: the claimed counts are
	// attacker-controlled, so memory must be bounded by the bytes
	// actually present.
	nStatic := br.Uvarint(1 << 26)
	insts := make([]isa.Inst, 0, min(nStatic, 4096))
	for i := uint64(0); i < nStatic && br.Ok(); i++ {
		insts = append(insts, isa.Inst{ // fields read in order
			Op:     isa.Op(br.Byte()),
			Dst:    isa.Reg(br.Byte()),
			Src1:   isa.Reg(br.Byte()),
			Src2:   isa.Reg(br.Byte()),
			Target: isa.Addr(br.U64()),
		})
	}
	nBlocks := br.Uvarint(nStatic + 1)
	blocks := make([]int, 0, min(nBlocks, 4096))
	for i := uint64(0); i < nBlocks && br.Ok(); i++ {
		blocks = append(blocks, int(br.Uvarint(nStatic)))
	}
	if !br.Ok() {
		return nil, br.Err()
	}
	prog := program.New(insts, blocks)
	if err := prog.Validate(); err != nil {
		return nil, br.Fail("embedded program invalid: %v", err)
	}

	nDyn := br.Uvarint(1 << 28)
	if nDyn > 0 && nStatic == 0 {
		// Guard the sidx bound below: nStatic-1 would wrap.
		return nil, br.Fail("dynamic instructions without a program")
	}
	dyn := make([]DynInst, 0, min(nDyn, 65536))
	for i := uint64(0); i < nDyn && br.Ok(); i++ {
		sidx := br.Uvarint(nStatic - 1)
		d := DynInst{SIdx: int32(sidx), Taken: br.Byte()&1 != 0}
		if prog.At(int(sidx)).Op.IsMem() {
			d.Addr = isa.Addr(br.U64())
		}
		d.Target = isa.Addr(br.U64())
		dyn = append(dyn, d)
	}
	if !br.Ok() {
		return nil, br.Err()
	}
	t := &Trace{Prog: prog, Insts: dyn, Name: name}
	if err := t.Validate(); err != nil {
		return nil, br.Fail("loaded stream invalid: %v", err)
	}
	return t, nil
}
