package trace_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// garbage has every field non-zero, so a Step that leaves any field
// unwritten yields a different record from one stepped into a zeroed
// record.
var garbage = emu.DynInst{
	Seq: ^uint64(0), PC: -7, NextPC: -9, Addr: 0xdeadbeef, SliceID: 77,
	Inst: isa.Inst{Op: isa.AMinX64, Dst: 9, Src1: 3, Src2: 4, Val: 5, Imm: -1,
		Flags: isa.FlagReduce},
	Taken: true, MemOOB: true, InSlice: true, Wrong: true,
}

// garbageBuf is an empty slice whose spare capacity holds garbage, the
// state of a recycled segment buffer handed to RunToSliceEnd.
func garbageBuf() []emu.DynInst {
	buf := make([]emu.DynInst, 256)
	for i := range buf {
		buf[i] = garbage
	}
	return buf[:0]
}

// TestStepIntoOverwritesRecord pins the step-into contract of
// emu.Frontend and emu.WrongPath: every implementation writes every field
// of the caller's record. Over a whole sliced kernel run, the live
// machine, the trace replay and their wrong-path shadows are each stepped
// twice in lockstep, once into records pre-filled with garbage and once
// into zeroed records, and the two streams must be identical (and the
// machine and replay streams equal). Run-ahead segments are built into a
// recycled buffer's garbage capacity and into a nil one.
func TestStepIntoOverwritesRecord(t *testing.T) {
	w, err := kernels.Build(kernels.Spec{Kernel: "bfs", Scale: 6, Mode: kernels.SliceOuter})
	if err != nil {
		t.Fatal(err)
	}
	prog, img := w.Progs[0], w.Mem
	clone := func() []byte { return append([]byte(nil), img...) }
	tr, err := trace.Capture(context.Background(), prog, clone())
	if err != nil {
		t.Fatal(err)
	}
	replay := func() emu.Frontend {
		r, err := trace.NewReplay(tr, prog, clone())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Dirty and clean twins of each frontend.
	fes := [][2]emu.Frontend{
		{emu.AsFrontend(emu.New(prog, clone())), emu.AsFrontend(emu.New(prog, clone()))},
		{replay(), replay()},
	}
	dir := func(pc int, in isa.Inst, actual bool) bool { return pc%3 == 0 }

	var forks, segs int
	for n := 0; !fes[0][0].Halted(); n++ {
		var want emu.DynInst
		for i, pair := range fes {
			dirty, clean := garbage, emu.DynInst{}
			if err := pair[0].Step(&dirty); err != nil {
				t.Fatal(err)
			}
			if err := pair[1].Step(&clean); err != nil {
				t.Fatal(err)
			}
			if dirty != clean {
				t.Fatalf("frontend %d record %d: garbage left in the record:\n  dirty %+v\n  clean %+v",
					i, n, dirty, clean)
			}
			if i == 0 {
				want = clean
			} else if clean != want {
				t.Fatalf("frontend %d record %d diverges from the machine", i, n)
			}
		}
		if !want.IsBranch() || !want.InSlice {
			continue
		}
		if n%2 == 0 {
			// Fork wrong paths, as a detected miss does.
			for i, pair := range fes {
				wd := pair[0].Fork(want.NextPC, true, want.SliceID)
				wc := pair[1].Fork(want.NextPC, true, want.SliceID)
				for k := 0; k < 64; k++ {
					dirty, clean := garbage, emu.DynInst{}
					okd, okc := wd.Step(dir, &dirty), wc.Step(dir, &clean)
					if okd != okc {
						t.Fatalf("frontend %d wrong path after #%d: twins disagree on death at record %d", i, want.Seq, k)
					}
					if !okd {
						break
					}
					if dirty != clean {
						t.Fatalf("frontend %d wrong-path record %d after #%d: garbage left in the record:\n  dirty %+v\n  clean %+v",
							i, k, want.Seq, dirty, clean)
					}
				}
			}
			forks++
			continue
		}
		// Run ahead to the slice end, as a selective miss does.
		var first []emu.DynInst
		for i, pair := range fes {
			dirty, err := pair[0].RunToSliceEnd(garbageBuf())
			if err != nil {
				t.Fatal(err)
			}
			clean, err := pair[1].RunToSliceEnd(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dirty, clean) {
				t.Fatalf("frontend %d segment after #%d: garbage left in a recycled buffer", i, want.Seq)
			}
			if i == 0 {
				first = clean
			} else if !reflect.DeepEqual(clean, first) {
				t.Fatalf("frontend %d segment after #%d diverges from the machine", i, want.Seq)
			}
		}
		segs++
	}
	if forks == 0 || segs == 0 {
		t.Fatalf("kernel exercised %d forks and %d run-aheads; need both", forks, segs)
	}
}
