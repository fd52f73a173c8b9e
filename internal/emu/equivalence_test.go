package emu

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/program"
)

// genStraightLine builds a random straight-line program over every
// non-control opcode, with memory accesses confined to a scratch buffer.
func genStraightLine(rng *graph.RNG, scratch uint64, words int) *isa.Program {
	b := program.NewBuilder("straight")
	regs := b.Regs(8)
	rBase := regs[0]
	b.Li(rBase, int64(scratch))
	for i, r := range regs[1:] {
		b.Li(r, int64(rng.Next()%1024)+1)
		_ = i
	}
	pick := func() isa.Reg { return regs[1+int(rng.Next()%7)] }
	n := 20 + int(rng.Next()%40)
	for i := 0; i < n; i++ {
		d, s1, s2 := pick(), pick(), pick()
		off := int64(rng.Next()%uint64(words)) * 8
		switch rng.Next() % 20 {
		case 0:
			b.Add(d, s1, s2)
		case 1:
			b.Sub(d, s1, s2)
		case 2:
			b.Mul(d, s1, s2)
		case 3:
			b.Div(d, s1, s2)
		case 4:
			b.Rem(d, s1, s2)
		case 5:
			b.And(d, s1, s2)
		case 6:
			b.Or(d, s1, s2)
		case 7:
			b.Xor(d, s1, s2)
		case 8:
			b.Shl(d, s1, s2)
		case 9:
			b.Shr(d, s1, s2)
		case 10:
			b.Sra(d, s1, s2)
		case 11:
			b.Min(d, s1, s2)
		case 12:
			b.Max(d, s1, s2)
		case 13:
			b.AddI(d, s1, int64(rng.Next()%997))
		case 14:
			b.FAdd(d, s1, s2)
		case 15:
			b.FMul(d, s1, s2)
		case 16:
			b.Ld64(d, rBase, off)
		case 17:
			b.St64(rBase, off, s1)
		case 18:
			b.AAdd64(d, rBase, off, s1)
		case 19:
			b.AMin64(d, rBase, off, s1)
		}
	}
	b.Halt()
	return b.Build()
}

// TestShadowMatchesMachine: for straight-line code, the shadow wrong-path
// engine computes exactly the machine's register results and observes the
// same memory values through its overlay, while never mutating the
// architectural image.
func TestShadowMatchesMachine(t *testing.T) {
	f := func(seed uint64) bool {
		rng := graph.NewRNG(seed)
		const words = 16
		l := program.NewLayout()
		scratch := l.AllocU64(words, nil)
		for i := 0; i < words; i++ {
			l.PutU64(scratch+uint64(i)*8, rng.Next()%4096)
		}
		p := genStraightLine(graph.NewRNG(seed+1), scratch, words)

		memM := append([]byte(nil), l.Image()...)
		memS := append([]byte(nil), l.Image()...)

		m := New(p, memM)
		if _, err := m.Run(0); err != nil {
			t.Logf("seed %d: machine: %v", seed, err)
			return false
		}

		ms := New(p, memS)
		s := ms.Shadow(0, false, 0)
		dir := func(int, isa.Inst, bool) bool { return false }
		for !s.Dead() {
			if _, ok := wrongStep(s, dir); !ok {
				break
			}
		}
		// Architectural memory untouched by the shadow.
		for i := range memS {
			if memS[i] != l.Image()[i] {
				t.Logf("seed %d: shadow mutated memory", seed)
				return false
			}
		}
		// Register results identical.
		if s.regs != m.Regs {
			t.Logf("seed %d: registers diverge", seed)
			return false
		}
		// The shadow's overlay view of scratch equals the machine's
		// final memory.
		for i := 0; i < words; i++ {
			want, _ := m.load(scratch+uint64(i)*8, 8)
			got, ok := s.load(scratch+uint64(i)*8, 8)
			if !ok || got != want {
				t.Logf("seed %d: overlay word %d: %d vs %d", seed, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestShadowBranchesFollowDirector: whatever the director returns is the
// direction the shadow takes, regardless of the computed condition.
func TestShadowBranchesFollowDirector(t *testing.T) {
	b := program.NewBuilder("dir")
	r := b.Reg()
	b.Li(r, 5)
	b.Beq(r, isa.R0, "taken") // condition false
	b.Li(r, 111)
	b.Halt()
	b.Label("taken")
	b.Li(r, 222)
	b.Halt()
	p := b.Build()

	for _, force := range []bool{false, true} {
		m := New(p, make([]byte, 64))
		s := m.Shadow(0, false, 0)
		dir := func(int, isa.Inst, bool) bool { return force }
		for !s.Dead() {
			if _, ok := wrongStep(s, dir); !ok {
				break
			}
		}
		want := uint64(111)
		if force {
			want = 222
		}
		if s.regs[1] != want {
			t.Fatalf("force=%v: r1 = %d, want %d", force, s.regs[1], want)
		}
	}
}
