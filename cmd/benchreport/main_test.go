package main

import "testing"

func TestCompareEntry(t *testing.T) {
	base := Entry{Name: "single/pr", WallSeconds: 0.02, Allocs: 1000, SimCycles: 25357}
	failed := func(e, b Entry) map[string]bool {
		out := map[string]bool{}
		for _, c := range compareEntry(e, b, 0.20) {
			out[c.what] = !c.ok
		}
		return out
	}

	same := base
	same.WallSeconds = 0.05 // 2.5x slower, but far below the wall-clock gate floor
	if got := failed(same, base); len(got) != 2 || got["cycles"] || got["allocs"] {
		t.Fatalf("identical run: checks %v, want cycles and allocs passing, wall ungated", got)
	}

	moved := base
	moved.SimCycles++
	if !failed(moved, base)["cycles"] {
		t.Fatal("a one-cycle difference passed the exact cycles check")
	}

	grown := base
	grown.Allocs = 1051
	if !failed(grown, base)["allocs"] {
		t.Fatal("allocations 5.1% over the baseline passed a 5% band")
	}
	grown.Allocs = 1040
	if failed(grown, base)["allocs"] {
		t.Fatal("allocations within the band failed")
	}

	long := Entry{Name: "fig9", WallSeconds: 13, Allocs: 100}
	slow := long
	slow.WallSeconds = 16
	if !failed(slow, long)["wall"] {
		t.Fatal("a 23% wall-clock regression on a 13 s entry passed a 20% threshold")
	}
	if _, gated := failed(long, Entry{Name: "fig4", WallSeconds: 0.77, Allocs: 100})["wall"]; gated {
		t.Fatal("a 0.77 s baseline entry was wall-clock gated")
	}
}
