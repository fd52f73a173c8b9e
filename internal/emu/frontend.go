package emu

// Frontend is the correct-path instruction source a core's thread fetches
// from: the architectural stream in program order plus the two extra
// operations the selective-flush model needs (running ahead to a slice
// boundary, and forking a wrong-path engine from the current state).
//
// Two implementations exist: the live functional emulator (*Machine, via
// AsFrontend) and the trace replayer (internal/trace.Replay), which feeds
// the identical stream from a captured trace without re-executing the
// emulator. The timing model is written against this interface only, so
// the two are interchangeable and results are byte-identical.
//
// Both Step methods (here and on WrongPath) write into a record the
// caller owns, so the core can step straight into a pooled uop without
// copying a DynInst through return values. An implementation must
// overwrite every field of that record on success: the caller may pass a
// recycled record still holding a previous instruction's Addr, MemOOB,
// Taken, Wrong or SliceID.
type Frontend interface {
	// Step writes the next correct-path dynamic instruction into d.
	Step(d *DynInst) error
	// RunToSliceEnd advances through the current slice's remaining
	// instructions (inclusive of its slice_end), appending them to buf.
	RunToSliceEnd(buf []DynInst) ([]DynInst, error)
	// Fork starts a wrong-path engine at startPC from the current
	// architectural register state; inSlice/sliceID seed its slice
	// context (that of the mispredicted branch). The engine may be the
	// one the previous Fork returned, reinitialized: only the latest
	// fork of a frontend is valid.
	Fork(startPC int, inSlice bool, sliceID uint64) WrongPath
	// Halted reports whether the stream has ended (Halt executed).
	Halted() bool
	// NextPC is the code index of the next instruction Step would
	// produce.
	NextPC() int
}

// WrongPath is the wrong-path engine behind a Frontend fork: it executes
// down a mispredicted direction with buffered stores (see Shadow, its
// canonical implementation).
type WrongPath interface {
	// Step writes the next wrong-path instruction into d; false means
	// the engine is dead and d was left untouched.
	Step(dir BranchDir, d *DynInst) bool
	Dead() bool
	NextPC() int
	InSlice() bool
}

// machineFrontend adapts *Machine to Frontend. Machine exposes Halted and
// PC as fields (the emulator's tests and tools poke them directly), so the
// method set lives on this wrapper instead. wp is the wrong-path engine
// Fork recycles.
type machineFrontend struct {
	m  *Machine
	wp *Shadow
}

// AsFrontend wraps a live machine as a core frontend.
func AsFrontend(m *Machine) Frontend { return &machineFrontend{m: m} }

func (f *machineFrontend) Step(d *DynInst) error { return f.m.Step(d) }

func (f *machineFrontend) RunToSliceEnd(buf []DynInst) ([]DynInst, error) {
	return f.m.RunToSliceEnd(buf)
}

func (f *machineFrontend) Fork(startPC int, inSlice bool, sliceID uint64) WrongPath {
	if f.wp == nil {
		f.wp = new(Shadow)
	}
	f.wp.Refork(f.m.Prog, f.m.Mem, &f.m.Regs, startPC, inSlice, sliceID)
	return f.wp
}

func (f *machineFrontend) Halted() bool { return f.m.Halted }

func (f *machineFrontend) NextPC() int { return f.m.PC }
