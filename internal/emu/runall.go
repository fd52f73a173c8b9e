package emu

import (
	"fmt"

	"repro/internal/isa"
)

// RunAll executes a set of machines (sharing one memory image) purely
// functionally, honoring barriers: each machine runs until its next
// Barrier or Halt; when all have arrived, the barrier opens and the next
// phase starts. It is the fast validation path for multi-threaded
// workloads (no timing). Returns the total instruction count.
func RunAll(machines []*Machine, maxInsts uint64) (uint64, error) {
	var total uint64
	var d DynInst
	for {
		alive := false
		for _, m := range machines {
			if m.Halted {
				continue
			}
			alive = true
			for !m.Halted {
				if err := m.Step(&d); err != nil {
					return total, err
				}
				total++
				if maxInsts > 0 && total > maxInsts {
					return total, fmt.Errorf("emu: RunAll budget %d exhausted", maxInsts)
				}
				if d.Inst.Op == isa.Barrier {
					break
				}
			}
		}
		if !alive {
			return total, nil
		}
	}
}
