package core

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SMT = 3 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.Reserve = -1 },
		func(c *Config) { c.Reserve = c.SQ },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.ROBBlockSize = 0 },
		func(c *Config) { c.SelectiveFlush = true; c.Reserve = 0 },
	}
	zeroReserveBaseline := DefaultConfig()
	zeroReserveBaseline.Reserve = 0
	if err := zeroReserveBaseline.Validate(); err != nil {
		t.Fatalf("Reserve 0 without selective flush should be valid: %v", err)
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Cycles: 100, Committed: 250, Branches: 50, Mispredicts: 5}
	if s.IPC() != 2.5 {
		t.Fatalf("IPC %f", s.IPC())
	}
	if s.MispredictRate() != 0.1 {
		t.Fatalf("rate %f", s.MispredictRate())
	}
	if s.MPKI() != 20 {
		t.Fatalf("MPKI %f", s.MPKI())
	}
	var z Stats
	if z.IPC() != 0 || z.MispredictRate() != 0 || z.MPKI() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Cycles: 10, Committed: 5, FRQPeak: 2, StackMem: 1}
	b := Stats{Cycles: 20, Committed: 7, FRQPeak: 1, StackMem: 2}
	a.Add(&b)
	if a.Cycles != 20 { // max, not sum: cores run concurrently
		t.Fatalf("cycles %d", a.Cycles)
	}
	if a.Committed != 12 || a.FRQPeak != 2 || a.StackMem != 3 {
		t.Fatalf("aggregate wrong: %+v", a)
	}
}

func TestEventHeapOrder(t *testing.T) {
	var h eventHeap
	for _, at := range []int64{5, 1, 9, 3} {
		h.push(event{at: at})
	}
	prev := int64(-1)
	for len(h) > 0 {
		e := h.pop()
		if e.at < prev {
			t.Fatalf("heap out of order: %d after %d", e.at, prev)
		}
		prev = e.at
	}
}

// fetchUop takes a uop from c's pool, fills its record with d and admits
// it, as fetch does.
func fetchUop(c *Core, d emu.DynInst) *uop {
	u := c.takeUop()
	u.d = d
	c.newUop(u, nil)
	return u
}

func TestDepRefStaleness(t *testing.T) {
	c := &Core{}
	u := fetchUop(c, emu.DynInst{})
	ref := makeRef(u)
	u.state = stWaiting
	if ref.ready(0) {
		t.Fatal("waiting producer reported ready")
	}
	u.state = stDone
	u.doneAt = 10
	if ref.ready(5) {
		t.Fatal("ready before doneAt")
	}
	if !ref.ready(10) {
		t.Fatal("not ready at doneAt")
	}
	// Recycle the uop: the stale reference must read as ready.
	u.state = stCommitted
	c.freeUop(u)
	u2 := fetchUop(c, emu.DynInst{})
	u2.state = stWaiting
	if u2 != u {
		t.Fatal("pool did not recycle")
	}
	if !ref.ready(0) {
		t.Fatal("stale reference to recycled uop not treated as ready")
	}
}

func TestUopPoolResets(t *testing.T) {
	c := &Core{}
	u := fetchUop(c, emu.DynInst{Seq: 7})
	u.mispred = true
	u.tombstone = true
	u.ndeps = 3
	id := u.id
	c.freeUop(u)
	u2 := fetchUop(c, emu.DynInst{Seq: 9})
	if u2.mispred || u2.tombstone || u2.ndeps != 0 {
		t.Fatal("pooled uop state leaked")
	}
	if u2.id == id {
		t.Fatal("recycled uop kept its id")
	}
	if u2.node.Val != u2 {
		t.Fatal("node back-pointer not reset")
	}
}

func TestClassPortsCoverage(t *testing.T) {
	// Every class the issue stage can see must have a port budget; a
	// class without one would never issue. Slice markers are dropped at
	// dispatch, so their class must have none.
	for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
		switch n := classPorts[cl]; {
		case cl == isa.ClassSlice && n != 0:
			t.Errorf("class %v has %d ports, want 0 (dropped at dispatch)", cl, n)
		case cl != isa.ClassSlice && n <= 0:
			t.Errorf("class %v has no ports", cl)
		}
	}
}

func TestSegBufPoolRefcounts(t *testing.T) {
	c := &Core{}
	sb := c.getSegBuf()
	sb.buf = append(sb.buf[:0], emu.DynInst{Seq: 1}, emu.DynInst{Seq: 2})
	parent := &missInfo{seg: sb.buf, segOwner: sb}
	child := &missInfo{seg: parent.seg[1:]}
	shareSeg(parent, child)
	if sb.refs != 2 {
		t.Fatalf("refs after share = %d, want 2", sb.refs)
	}

	c.releaseMiss(parent)
	c.releaseMiss(parent) // idempotent: cancellation after segDispatched
	if sb.refs != 1 || len(c.segPool) != 0 {
		t.Fatalf("buffer freed while a child still aliases it (refs=%d pool=%d)",
			sb.refs, len(c.segPool))
	}
	c.releaseMiss(child)
	if len(c.segPool) != 1 {
		t.Fatal("buffer not pooled after the last release")
	}

	sb2 := c.getSegBuf()
	if sb2 != sb || sb2.refs != 1 {
		t.Fatalf("pool did not recycle the buffer (refs=%d)", sb2.refs)
	}
	if cap(sb2.buf) < 2 {
		t.Fatal("recycled buffer lost its capacity")
	}
}

// TestSegBufPoolLargestFirst checks that a new miss takes the largest
// free segment buffer, so a long run-ahead more often finds one that fits.
func TestSegBufPoolLargestFirst(t *testing.T) {
	c := &Core{}
	for _, n := range []int{8, 64, 16} {
		c.segPool = append(c.segPool, &segBuf{buf: make([]emu.DynInst, 0, n)})
	}
	for _, want := range []int{64, 16, 8} {
		if got := cap(c.getSegBuf().buf); got != want {
			t.Fatalf("took a buffer of capacity %d, want %d", got, want)
		}
	}
	if sb := c.getSegBuf(); cap(sb.buf) != 0 || sb.refs != 1 {
		t.Fatalf("empty pool returned capacity %d, refs %d", cap(sb.buf), sb.refs)
	}
}
