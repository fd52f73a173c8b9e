// Package emu implements the functional emulator for the virtual ISA.
//
// A Machine executes a program architecturally, strictly in program order,
// and produces the dynamic instruction stream the timing model consumes.
// A Shadow is a fork of the machine used as the wrong-path engine: it runs
// down a mispredicted direction with buffered stores, so wrong-path
// instructions carry realistic addresses without disturbing architectural
// state (the role Pin's code cache plays in the paper's setup, §5.2).
package emu

import (
	"fmt"

	"repro/internal/isa"
)

// DynInst is one dynamic instruction: a static instruction plus everything
// the timing model needs to know about this execution of it. The flags
// sit together at the end so the record carries no padding between them
// (it is copied per fetched instruction).
type DynInst struct {
	Seq     uint64   // program-order sequence number (correct path only)
	PC      int      // code index of the instruction
	Inst    isa.Inst // the static instruction
	NextPC  int      // PC of the dynamically next instruction
	Addr    uint64   // effective address (memory ops)
	SliceID uint64   // which dynamic slice instance (valid when InSlice)

	Taken   bool // branch outcome (conditional branches)
	MemOOB  bool // wrong-path access fell outside data memory
	InSlice bool // instruction lies between slice_start and slice_end
	Wrong   bool // produced by the wrong-path engine
}

// IsBranch reports whether the instruction is a conditional branch.
func (d *DynInst) IsBranch() bool { return d.Inst.Op.IsBranch() }

func (d *DynInst) String() string {
	tag := ""
	if d.Wrong {
		tag = " WP"
	}
	if d.InSlice {
		tag += fmt.Sprintf(" s%d", d.SliceID)
	}
	return fmt.Sprintf("#%d @%d %v%s", d.Seq, d.PC, d.Inst, tag)
}
