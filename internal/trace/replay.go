package trace

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Replay feeds a captured trace to the timing model as an emu.Frontend.
// It reconstructs every DynInst of the original execution — same sequence
// numbers, branch outcomes, addresses, and slice context — without
// re-executing the functional emulator, and maintains the architectural
// register file and memory image as a cursor over the stream so that
// wrong-path engines can fork from the exact state a live machine would
// have at any branch.
//
// A Replay is always a view of a Batch: the decode comes from the batch's
// shared ring, while the memory image, register file and cursors below
// are the view's own. A serial replay (NewReplay) is simply a batch of one.
//
// A Replay owns its memory image the way a Machine does: recorded stores
// are applied in program order, so after the stream is consumed the image
// equals the live execution's final memory (workload output checks pass
// unchanged). One Replay serves one run; the underlying Trace is immutable
// and shared.
type Replay struct {
	tr   *Trace
	prog *isa.Program
	mem  []byte
	regs [isa.NumRegs]uint64

	cur    int // next record index; doubles as the sequence number
	nextPC int

	halted  bool
	inSlice bool
	sliceID uint64

	wp *emu.Shadow // wrong-path engine Fork recycles

	// batch supplies the decoded records; decoded is the view's local
	// snapshot of its decode head (records below it are read lock-free);
	// pubCur is the cursor value the view last published to the batch
	// under its lock.
	batch   *Batch
	decoded int
	pubCur  int
}

// NewReplay builds a frontend replaying tr against prog and mem: a batch
// of one view. The program must be the one the trace was captured from
// (checked cheaply by name and length); mem is the workload's initial
// memory image, mutated in place as recorded stores are applied.
func NewReplay(tr *Trace, prog *isa.Program, mem []byte) (*Replay, error) {
	b, err := NewBatch(tr, prog)
	if err != nil {
		return nil, err
	}
	return b.NewView(mem), nil
}

func (r *Replay) get(reg isa.Reg) uint64 {
	if reg == isa.R0 {
		return 0
	}
	return r.regs[reg]
}

func (r *Replay) load(addr uint64, size int) (uint64, error) {
	if addr+uint64(size) > uint64(len(r.mem)) {
		return 0, fmt.Errorf("trace: %s: replayed load of %d bytes at %#x outside memory (%d bytes)",
			r.prog.Name, size, addr, len(r.mem))
	}
	if size == 4 {
		return uint64(binary.LittleEndian.Uint32(r.mem[addr:])), nil
	}
	return binary.LittleEndian.Uint64(r.mem[addr:]), nil
}

func (r *Replay) store(addr uint64, size int, v uint64) error {
	if addr+uint64(size) > uint64(len(r.mem)) {
		return fmt.Errorf("trace: %s: replayed store of %d bytes at %#x outside memory (%d bytes)",
			r.prog.Name, size, addr, len(r.mem))
	}
	if size == 4 {
		binary.LittleEndian.PutUint32(r.mem[addr:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(r.mem[addr:], v)
	}
	return nil
}

// Step produces the next recorded instruction and applies its
// architectural effects (register write, memory store) to the replay's
// state, mirroring Machine.Step record for record. The decoded record
// comes from the batch's shared ring; only the view's own state (memory
// image, register file, slice context, halt) is advanced here. The
// record is copied whole into d, so every field is overwritten.
func (r *Replay) Step(d *emu.DynInst) error {
	if r.halted {
		return fmt.Errorf("%s: step after halt", r.prog.Name)
	}
	if r.cur >= len(r.tr.pcs) {
		return fmt.Errorf("trace: %s: stream exhausted without halt at record %d",
			r.prog.Name, r.cur)
	}
	if r.cur >= r.decoded {
		if err := r.syncBatch(); err != nil {
			return err
		}
	} else if r.cur-r.pubCur >= batchPubChunk {
		r.publish()
	}
	rec := &r.batch.ring[r.cur&r.batch.mask]
	*d = rec.d
	in := &d.Inst
	op := in.Op

	// Memory effects first: stores read their data register, atomics read
	// old memory, both before the destination write lands (the recorded
	// destination value of an atomic is the old memory value, so ordering
	// only matters for the memory side).
	switch {
	case op.IsStore():
		if err := r.store(d.Addr, op.MemSize(), r.get(in.Val)); err != nil {
			return err
		}
	case op.IsAtomic():
		size := op.MemSize()
		old, err := r.load(d.Addr, size)
		if err != nil {
			return err
		}
		nv := old + r.get(in.Val)
		switch op {
		case isa.AMin64, isa.AMin32, isa.AMinX64, isa.AMinX32:
			nv = min(old, r.get(in.Val))
		}
		if err := r.store(d.Addr, size, nv); err != nil {
			return err
		}
	}
	if rec.fl&flagVal != 0 {
		r.regs[in.Dst] = rec.val
	}
	switch op {
	case isa.SliceStart:
		r.inSlice = true
		r.sliceID = d.SliceID
	case isa.SliceEnd:
		r.inSlice = false
	case isa.Halt:
		r.halted = true
	}
	r.cur++
	r.nextPC = d.NextPC
	return nil
}

// RunToSliceEnd advances through the remainder of the current slice
// (inclusive of its slice_end), appending each instruction to buf —
// Machine.RunToSliceEnd over the recorded stream.
func (r *Replay) RunToSliceEnd(buf []emu.DynInst) ([]emu.DynInst, error) {
	if !r.inSlice {
		return buf, fmt.Errorf("trace: %s: RunToSliceEnd outside slice at record %d",
			r.prog.Name, r.cur)
	}
	id := r.sliceID
	for {
		buf = slices.Grow(buf, 1)[:len(buf)+1]
		d := &buf[len(buf)-1]
		if err := r.Step(d); err != nil {
			return buf[:len(buf)-1], err
		}
		if d.Inst.Op == isa.SliceEnd && d.SliceID == id {
			return buf, nil
		}
		if r.halted {
			return buf, fmt.Errorf("trace: %s: halt inside slice %d", r.prog.Name, id)
		}
	}
}

// Fork starts a live wrong-path engine from the replay's current
// architectural state. Wrong paths are the one part of execution that
// cannot come from the trace — which branches mispredict (and therefore
// where wrong paths start) depends on the timing configuration — so they
// are regenerated exactly as a live machine regenerates them. Like the
// live frontend, it recycles the engine of its previous fork.
func (r *Replay) Fork(startPC int, inSlice bool, sliceID uint64) emu.WrongPath {
	if r.wp == nil {
		r.wp = new(emu.Shadow)
	}
	r.wp.Refork(r.prog, r.mem, &r.regs, startPC, inSlice, sliceID)
	return r.wp
}

// Halted reports whether the stream's Halt has been consumed.
func (r *Replay) Halted() bool { return r.halted }

// NextPC is the code index of the next instruction Step would produce.
func (r *Replay) NextPC() int { return r.nextPC }

// Done reports whether every record has been consumed (the replayed run
// reached its halt); the final memory image is complete only then.
func (r *Replay) Done() bool { return r.cur >= len(r.tr.pcs) }
