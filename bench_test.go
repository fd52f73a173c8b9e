package blp

// One benchmark per paper table/figure: each regenerates its experiment at
// a reduced input scale (quick sweeps) and reports the headline numbers as
// custom metrics, so `go test -bench=. -benchmem` reproduces the whole
// evaluation's shape in minutes. cmd/experiments runs the same harness at
// full default scales.

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// benchDelta shrinks inputs for the benchmark harness; the full-scale
// figures come from cmd/experiments.
const benchDelta = -2

func reportFigure(b *testing.B, f *Figure, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := f.Values[k]; ok {
			b.ReportMetric(v, k)
		}
	}
	b.Logf("\n%s", f)
}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := Table1()
		if i == 0 {
			b.Logf("\n%s", f)
		}
	}
}

func BenchmarkMotivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Motivation(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "oracle/hmean")
		}
	}
}

func BenchmarkFig4SliceSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig4(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "hmean", "hmeanNoPR", "hmeanPerfect", "best/ms")
		}
	}
}

func BenchmarkFig5CycleStacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig5(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/orig/branch", "ms/sliced/branch")
		}
	}
}

func BenchmarkFig6Dispatched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig6(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/orig/wrong", "ms/sliced/wrong", "sssp/overhead")
		}
	}
}

func BenchmarkFig7Reserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig7(benchDelta, []int{1, 8, 32})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/r1", "ms/r8", "ms/r32")
		}
	}
}

func BenchmarkFig8Blocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig8(benchDelta, []int{1, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "hmean/b1", "hmean/b8", "hmean/b16")
		}
	}
}

func BenchmarkFig9InputSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig9(benchDelta - 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/x1", "ms/x8")
		}
	}
}

func BenchmarkFig10Multicore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig10(benchDelta, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "hmean/1c", "hmean/nc")
		}
	}
}

func BenchmarkFig11SMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := Fig11(benchDelta)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportFigure(b, f, "ms/smt2", "ms/smt2s", "ms/sliced")
		}
	}
}

// BenchmarkAblationWrongPathMemory quantifies the wrong-path memory-access
// modeling choice discussed in DESIGN.md: with exact-address wrong-path
// prefetching the oracle headroom shrinks.
func BenchmarkAblationWrongPathMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wp := range []bool{false, true} {
			base, err := Run(Options{Benchmark: "bfs", Scale: scaled("bfs", benchDelta),
				WrongPathMemAccess: wp})
			if err != nil {
				b.Fatal(err)
			}
			orc, err := Run(Options{Benchmark: "bfs", Scale: scaled("bfs", benchDelta),
				WrongPathMemAccess: wp, Predictor: "oracle"})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(Speedup(base, orc), fmt.Sprintf("oracle(wpmem=%v)", wp))
			}
		}
	}
}

// BenchmarkAblationSharedReserve measures the resolve-path admission
// policy: oldest-hole-only (default) versus sharing the reserved entries
// among all pending resolve paths.
func BenchmarkAblationSharedReserve(b *testing.B) {
	defer core.SetNonOldestReserve(-1)
	for i := 0; i < b.N; i++ {
		base, err := Run(Options{Benchmark: "ms", Scale: scaled("ms", benchDelta)})
		if err != nil {
			b.Fatal(err)
		}
		for _, floor := range []int{-1, 1} {
			core.SetNonOldestReserve(floor)
			sl, err := Run(Options{Benchmark: "ms", Scale: scaled("ms", benchDelta),
				Mode: SliceOuter})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(Speedup(base, sl), fmt.Sprintf("sliced(floor=%d)", floor))
			}
		}
	}
}

// BenchmarkBatchedSweep measures the batched-replay engine on the
// canonical 6-point timing sweep of one sliced workload: each iteration
// is a fresh Runner, so it pays one trace capture plus one shared-decode
// batch over all six configurations — the full cost a sweeping caller
// sees. Compare against six times BenchmarkSimThroughput-style live runs
// for the sweep-cost multiple.
func BenchmarkBatchedSweep(b *testing.B) {
	scale := scaled("cc", benchDelta)
	sweep := []Options{
		{Benchmark: "cc", Scale: scale, Mode: SliceOuter},
		{Benchmark: "cc", Scale: scale, Mode: SliceOuter, Predictor: "oracle"},
		{Benchmark: "cc", Scale: scale, Mode: SliceOuter, FRQSize: 2},
		{Benchmark: "cc", Scale: scale, Mode: SliceOuter, ROBBlockSize: 4},
		{Benchmark: "cc", Scale: scale, Mode: SliceOuter, Reserve: 16},
		{Benchmark: "cc", Scale: scale, Mode: SliceOuter, WrongPathMemAccess: true},
	}
	// Warm the memoized input generation; it is not part of the sweep cost.
	if _, err := Run(sweep[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(1)
		if _, err := r.RunAll(sweep); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if st := r.Stats(); st.Batched != len(sweep) || st.BatchGroups != 1 {
				b.Fatalf("sweep did not run as one batch: %+v", st)
			}
		}
	}
}

// BenchmarkSimThroughput measures raw simulator speed as committed
// instructions per wall second, the cost every experiment pays per unit
// of work (simulated cycles per second would also count fast-forwarded
// idle cycles, which cost nothing), plus allocations per run.
func BenchmarkSimThroughput(b *testing.B) {
	b.ReportAllocs()
	var committed uint64
	for i := 0; i < b.N; i++ {
		r, err := Run(Options{Benchmark: "pr", Scale: scaled("pr", benchDelta)})
		if err != nil {
			b.Fatal(err)
		}
		committed += r.Stats.Committed
	}
	b.ReportMetric(float64(committed)/1e6/b.Elapsed().Seconds(), "Minst/s")
}
