package emu

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/program"
)

// buildArith assembles a little program exercising the integer ALU,
// writing results to memory for inspection.
func buildArith() (*isa.Program, []byte, uint64) {
	l := program.NewLayout()
	out := l.Alloc(128)
	b := program.NewBuilder("arith")
	rOut, rA, rB, rT := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rOut, int64(out))
	b.Li(rA, 100)
	b.Li(rB, 7)
	b.Add(rT, rA, rB)
	b.St64(rOut, 0, rT) // 107
	b.Sub(rT, rA, rB)
	b.St64(rOut, 8, rT) // 93
	b.Mul(rT, rA, rB)
	b.St64(rOut, 16, rT) // 700
	b.Div(rT, rA, rB)
	b.St64(rOut, 24, rT) // 14
	b.Rem(rT, rA, rB)
	b.St64(rOut, 32, rT) // 2
	b.ShlI(rT, rA, 3)
	b.St64(rOut, 40, rT) // 800
	b.Min(rT, rA, rB)
	b.St64(rOut, 48, rT) // 7
	b.Max(rT, rA, rB)
	b.St64(rOut, 56, rT) // 100
	b.Div(rT, rA, isa.R0)
	b.St64(rOut, 64, rT) // x/0 = 0
	b.Halt()
	return b.Build(), l.Image(), out
}

func TestMachineArith(t *testing.T) {
	p, mem, out := buildArith()
	m := New(p, mem)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []uint64{107, 93, 700, 14, 2, 800, 7, 100, 0}
	for i, w := range want {
		if got := program.ReadU64(mem, out+uint64(i)*8); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestMachineFloat(t *testing.T) {
	l := program.NewLayout()
	out := l.Alloc(64)
	b := program.NewBuilder("float")
	rOut, rA, rB, rT := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rOut, int64(out))
	b.LiF(rA, 2.5)
	b.LiF(rB, 4.0)
	b.FAdd(rT, rA, rB)
	b.St64(rOut, 0, rT) // 6.5
	b.FMul(rT, rA, rB)
	b.St64(rOut, 8, rT) // 10.0
	b.FDiv(rT, rB, rA)
	b.St64(rOut, 16, rT) // 1.6
	b.LiF(rT, -3.75)
	b.FAbs(rT, rT)
	b.St64(rOut, 24, rT) // 3.75
	b.Li(rT, 9)
	b.CvtIF(rT, rT)
	b.St64(rOut, 32, rT) // 9.0
	b.Halt()
	m := New(b.Build(), l.Image())
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, w := range []float64{6.5, 10.0, 1.6, 3.75, 9.0} {
		if got := program.ReadF64(m.Mem, out+uint64(i)*8); got != w {
			t.Errorf("out[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestMachineAtomics(t *testing.T) {
	l := program.NewLayout()
	word := l.AllocU64(2, []uint64{10, 100})
	b := program.NewBuilder("atomics")
	rW, rV, rOld := b.Reg(), b.Reg(), b.Reg()
	b.Li(rW, int64(word))
	b.Li(rV, 5)
	b.AAdd64(rOld, rW, 0, rV) // 10 -> 15, old 10
	b.St64(rW, 8, rOld)       // word[1] = 10
	b.Li(rV, 3)
	b.AMin64(rOld, rW, 0, rV) // 15 -> 3
	b.Halt()
	m := New(b.Build(), l.Image())
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := program.ReadU64(m.Mem, word); got != 3 {
		t.Errorf("word = %d, want 3", got)
	}
	if got := program.ReadU64(m.Mem, word+8); got != 10 {
		t.Errorf("old = %d, want 10", got)
	}
}

func TestMachineFaults(t *testing.T) {
	b := program.NewBuilder("oob")
	r := b.Reg()
	b.Li(r, 1<<40)
	b.Ld64(r, r, 0)
	b.Halt()
	m := New(b.Build(), make([]byte, 64))
	if _, err := m.Run(0); err == nil {
		t.Fatal("out-of-bounds load not detected")
	}

	// Step after halt errors.
	b2 := program.NewBuilder("halt")
	b2.Halt()
	m2 := New(b2.Build(), nil)
	if _, err := step(m2); err != nil {
		t.Fatal(err)
	}
	if _, err := step(m2); err == nil {
		t.Fatal("step after halt should fail")
	}
}

// TestDeterminism: the same program and seed memory produce identical
// dynamic streams.
func TestDeterminism(t *testing.T) {
	f := func(a, bv uint64) bool {
		p, mem1, _ := buildArith()
		_, mem2, _ := buildArith()
		m1, m2 := New(p, mem1), New(p, mem2)
		for !m1.Halted {
			d1, err1 := step(m1)
			d2, err2 := step(m2)
			if err1 != nil || err2 != nil {
				return false
			}
			if d1 != d2 {
				return false
			}
		}
		return bytes.Equal(mem1, mem2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// buildSliceLoop builds a sliced loop whose branch outcome depends on the
// memory values, for shadow and RunToSliceEnd tests.
func buildSliceLoop(n int, vals []uint32) (*isa.Program, []byte, uint64) {
	l := program.NewLayout()
	in := l.AllocU32(n, vals)
	out := l.AllocU32(n, nil)
	b := program.NewBuilder("sliceloop")
	rI, rN, rIn, rOut, rX, rT := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rI, 0)
	b.Li(rN, int64(n))
	b.Li(rIn, int64(in))
	b.Li(rOut, int64(out))
	b.Label("loop")
	b.Bge(rI, rN, "done")
	b.SliceStart(true)
	b.LdX32(rX, rIn, rI, 2)
	b.AndI(rT, rX, 1)
	b.Beq(rT, isa.R0, "even")
	b.MulI(rX, rX, 3)
	b.Label("even")
	b.StX32(rOut, rI, 2, rX)
	b.SliceEnd(true)
	b.AddI(rI, rI, 1)
	b.Jmp("loop")
	b.Label("done")
	b.SliceFence(true)
	b.Halt()
	return b.Build(), l.Image(), out
}

func TestRunToSliceEnd(t *testing.T) {
	p, mem, _ := buildSliceLoop(4, []uint32{1, 2, 3, 4})
	m := New(p, mem)
	// Step until inside the first slice (after the in-slice branch).
	for !m.InSlice() {
		if _, err := step(m); err != nil {
			t.Fatal(err)
		}
	}
	// Execute the branch inside the slice.
	for {
		d, err := step(m)
		if err != nil {
			t.Fatal(err)
		}
		if d.IsBranch() {
			break
		}
	}
	seg, err := m.RunToSliceEnd(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) == 0 {
		t.Fatal("empty segment")
	}
	last := seg[len(seg)-1]
	if last.Inst.Op != isa.SliceEnd {
		t.Fatalf("segment must end with slice_end, got %v", last.Inst.Op)
	}
	if m.InSlice() {
		t.Fatal("machine still in slice after RunToSliceEnd")
	}
	// Sequence numbers are strictly increasing program order.
	for i := 1; i < len(seg); i++ {
		if seg[i].Seq != seg[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq at %d", i)
		}
	}
}

func TestRunToSliceEndOutsideSlice(t *testing.T) {
	p, mem, _ := buildSliceLoop(2, []uint32{1, 2})
	m := New(p, mem)
	if _, err := m.RunToSliceEnd(nil); err == nil {
		t.Fatal("RunToSliceEnd outside a slice should fail")
	}
}

func TestShadowIsolation(t *testing.T) {
	p, mem, out := buildSliceLoop(4, []uint32{1, 2, 3, 4})
	m := New(p, mem)
	// Run to just after the first in-slice branch.
	for {
		d, err := step(m)
		if err != nil {
			t.Fatal(err)
		}
		if d.IsBranch() && d.InSlice {
			break
		}
	}
	before := append([]byte(nil), mem...)
	regsBefore := m.Regs

	// Shadow down the not-actually-taken direction; force everything
	// not-taken so it rolls forward through stores.
	s := m.Shadow(m.PC, true, 1)
	dir := func(pc int, in isa.Inst, actual bool) bool { return false }
	for i := 0; i < 50 && !s.Dead(); i++ {
		if _, ok := wrongStep(s, dir); !ok {
			break
		}
	}
	// Architectural state untouched.
	if !bytes.Equal(before, mem) {
		t.Fatal("shadow leaked stores into architectural memory")
	}
	if regsBefore != m.Regs {
		t.Fatal("shadow modified machine registers")
	}
	_ = out
}

func TestShadowForwarding(t *testing.T) {
	// A shadow's own stores must be visible to its later loads.
	l := program.NewLayout()
	buf := l.Alloc(64)
	b := program.NewBuilder("fwd")
	rB, rV, rT := b.Reg(), b.Reg(), b.Reg()
	b.Li(rB, int64(buf))
	b.Li(rV, 1234)
	b.St64(rB, 0, rV)
	b.Ld64(rT, rB, 0)
	b.St64(rB, 8, rT)
	b.Halt()
	p := b.Build()
	m := New(p, l.Image())
	s := m.Shadow(0, false, 0)
	dir := func(int, isa.Inst, bool) bool { return false }
	var lastLd DynInst
	for !s.Dead() {
		d, ok := wrongStep(s, dir)
		if !ok {
			break
		}
		if d.Inst.Op == isa.Ld64 {
			lastLd = d
		}
	}
	if lastLd.PC == 0 {
		t.Fatal("shadow never executed the load")
	}
	// Architectural memory still zero at buf.
	if got := program.ReadU64(m.Mem, buf); got != 0 {
		t.Fatalf("architectural memory modified: %d", got)
	}
}

func TestShadowOOB(t *testing.T) {
	b := program.NewBuilder("oob")
	r := b.Reg()
	b.Li(r, 1<<40)
	b.Ld64(r, r, 0)
	b.Halt()
	p := b.Build()
	m := New(p, make([]byte, 64))
	s := m.Shadow(0, false, 0)
	dir := func(int, isa.Inst, bool) bool { return false }
	oob := false
	for !s.Dead() {
		d, ok := wrongStep(s, dir)
		if !ok {
			break
		}
		if d.MemOOB {
			oob = true
		}
	}
	if !oob {
		t.Fatal("shadow out-of-bounds access not flagged")
	}
}

func TestIndependenceCheckerCatchesViolation(t *testing.T) {
	// A slice stores to memory; code after the slice (before the fence)
	// reads it: a §4.1 contract violation.
	l := program.NewLayout()
	buf := l.Alloc(64)
	b := program.NewBuilder("violate")
	rB, rV := b.Reg(), b.Reg()
	b.Li(rB, int64(buf))
	b.Li(rV, 1)
	b.SliceStart(true)
	b.St64(rB, 0, rV)
	b.SliceEnd(true)
	b.Ld64(rV, rB, 0) // reads slice-written memory before the fence
	b.SliceFence(true)
	b.Halt()
	m := New(b.Build(), l.Image())
	m.CheckIndependence = true
	if _, err := m.Run(0); err == nil {
		t.Fatal("memory independence violation not caught")
	}
}

func TestIndependenceCheckerRegisterViolation(t *testing.T) {
	b := program.NewBuilder("regviolate")
	rA, rB := b.Reg(), b.Reg()
	b.SliceStart(true)
	b.Li(rA, 42)
	b.SliceEnd(true)
	b.Mov(rB, rA) // reads a slice-written register outside the slice
	b.SliceFence(true)
	b.Halt()
	m := New(b.Build(), make([]byte, 64))
	m.CheckIndependence = true
	if _, err := m.Run(0); err == nil {
		t.Fatal("register independence violation not caught")
	}
}

func TestIndependenceCheckerAllowsFenceReads(t *testing.T) {
	l := program.NewLayout()
	buf := l.Alloc(64)
	b := program.NewBuilder("fenced")
	rB, rV := b.Reg(), b.Reg()
	b.Li(rB, int64(buf))
	b.Li(rV, 1)
	b.SliceStart(true)
	b.St64(rB, 0, rV)
	b.SliceEnd(true)
	b.SliceFence(true)
	b.Ld64(rV, rB, 0) // after the fence: the sanctioned channel
	b.Halt()
	m := New(b.Build(), l.Image())
	m.CheckIndependence = true
	if _, err := m.Run(0); err != nil {
		t.Fatalf("legal post-fence read rejected: %v", err)
	}
}

func TestIndependenceCheckerAllowsReduce(t *testing.T) {
	b := program.NewBuilder("reduce")
	acc := b.Reg()
	b.Li(acc, 0)
	for i := 0; i < 2; i++ {
		b.SliceStart(true)
		b.Reduce().AddI(acc, acc, 1)
		b.SliceEnd(true)
	}
	b.SliceFence(true)
	b.Halt()
	m := New(b.Build(), make([]byte, 64))
	m.CheckIndependence = true
	if _, err := m.Run(0); err != nil {
		t.Fatalf("reduce accumulator rejected: %v", err)
	}
	if m.Regs[1] != 2 {
		t.Fatalf("acc = %d, want 2", m.Regs[1])
	}
}

func TestRunAllBarrierPhases(t *testing.T) {
	// Two machines: A writes, barrier, B reads A's value in phase 2.
	l := program.NewLayout()
	buf := l.Alloc(64)

	ba := program.NewBuilder("writer")
	rB, rV := ba.Reg(), ba.Reg()
	ba.Li(rB, int64(buf))
	ba.Li(rV, 77)
	ba.St64(rB, 0, rV)
	ba.Barrier()
	ba.Halt()

	bb := program.NewBuilder("reader")
	rB2, rV2 := bb.Reg(), bb.Reg()
	bb.Li(rB2, int64(buf))
	bb.Barrier()
	bb.Ld64(rV2, rB2, 0)
	bb.St64(rB2, 8, rV2)
	bb.Halt()

	mem := l.Image()
	ms := []*Machine{New(bb.Build(), mem), New(ba.Build(), mem)}
	if _, err := RunAll(ms, 0); err != nil {
		t.Fatal(err)
	}
	if got := program.ReadU64(mem, buf+8); got != 77 {
		t.Fatalf("reader saw %d, want 77", got)
	}
}

// step and wrongStep return each record as a fresh value, for tests that
// compare or keep records.
func step(m *Machine) (DynInst, error) {
	var d DynInst
	err := m.Step(&d)
	return d, err
}

func wrongStep(w WrongPath, dir BranchDir) (DynInst, bool) {
	var d DynInst
	ok := w.Step(dir, &d)
	return d, ok
}
