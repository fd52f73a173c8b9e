// Command benchreport measures the simulator's own performance — wall
// clock, simulated-cycles per second, and allocations — and writes a
// versioned BENCH_<n>.json report, so the repository accumulates a
// benchmark trajectory PR by PR (BENCH_3.json is this change's snapshot;
// compare files to see the history).
//
// It can also gate on an earlier report: -baseline fails the run (exit 1)
// when any entry it shares with the baseline
//   - simulated a different number of cycles (sim_cycles must match
//     exactly: the simulator is deterministic, so any difference is a
//     change in simulated behavior),
//   - allocated more than 5% above the baseline's count, or
//   - regressed in wall clock by more than -threshold, checked only for
//     baseline entries of at least ten times the 0.1 s noise floor.
//
// Wall clock is machine-dependent, so that part of the gate is only
// meaningful on comparable hardware (CI uses a fixed runner class and
// refreshes the baseline whenever it changes). Simulated cycles do not
// depend on the host, and allocation counts barely do (see allocBand).
//
// With -ledger it instead reads a durable store's append-only experiment
// ledger (ledger.ndjson, written by sfserved -store-dir or any
// blp.NewRunnerStore user) and summarizes the campaign's trajectory:
// computations per benchmark and behavior version, simulated cycles, and
// wall clock actually spent — history that survives cache eviction and
// version invalidation alike.
//
// Usage:
//
//	benchreport -out BENCH_3.json                 # measure, write report
//	benchreport -delta -2 -baseline BENCH_3.json  # quick run + regression gate
//	benchreport -ledger /var/lib/sfserved         # summarize ledger history
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	blp "repro"
	"repro/internal/kernels"
	"repro/internal/store"
)

// Entry is one measured workload.
type Entry struct {
	Name string `json:"name"`
	// WallSeconds is the cold, serial (-jobs 1) execution time.
	WallSeconds float64 `json:"wall_seconds"`
	// Allocs counts heap allocations over the run (runtime.Mallocs delta).
	Allocs uint64 `json:"allocs"`
	// SimCycles and SimCyclesPerSec are set for single-simulation entries,
	// where simulated time is well defined (figures aggregate many runs).
	SimCycles       int64   `json:"sim_cycles,omitempty"`
	SimCyclesPerSec float64 `json:"simcycles_per_sec,omitempty"`
	// AllocsPerSimKCycle is allocations per thousand simulated cycles, the
	// steady-state allocation rate of the hot loop.
	AllocsPerSimKCycle float64 `json:"allocs_per_sim_kcycle,omitempty"`
}

// Report is the BENCH_<n>.json schema.
type Report struct {
	Version   int    `json:"version"`
	GoVersion string `json:"go_version"`
	Delta     int    `json:"delta"`
	Generated string `json:"generated,omitempty"`
	// Notes carries free-form context for the trajectory (what changed
	// since the previous BENCH_<n-1>.json, reference numbers, hardware).
	Notes   []string `json:"notes,omitempty"`
	Entries []Entry  `json:"entries"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")

	version := flag.Int("version", 3, "report version (the <n> of BENCH_<n>.json)")
	out := flag.String("out", "", "write the report (JSON) to this file")
	delta := flag.Int("delta", 0, "input-scale delta passed to the figures (negative = smaller/faster)")
	figs := flag.String("figs", "4,9", "comma-separated figure list to measure")
	singles := flag.String("singles", "pr,bfs", "comma-separated benchmarks for single-run throughput entries")
	sweeps := flag.String("sweeps", "cc", "comma-separated benchmarks for 6-point sweep entries (live vs batched replay)")
	baseline := flag.String("baseline", "", "earlier BENCH_<n>.json to gate against")
	threshold := flag.Float64("threshold", 0.20, "max tolerated wall-clock regression vs the baseline")
	stamp := flag.Bool("stamp", false, "record the generation time (off for committed reports, to keep them reproducible)")
	ledger := flag.String("ledger", "", "summarize a durable store's experiment ledger (a store directory or ledger.ndjson path) instead of measuring")
	var notes notesFlag
	flag.Var(&notes, "note", "free-form note recorded in the report (repeatable)")
	flag.Parse()

	if *ledger != "" {
		if err := summarizeLedger(*ledger); err != nil {
			log.Fatal(err)
		}
		return
	}

	rep := &Report{Version: *version, GoVersion: runtime.Version(), Delta: *delta, Notes: notes}
	if *stamp {
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
	}

	for _, name := range split(*singles) {
		rep.Entries = append(rep.Entries, measureSingle(name, *delta))
	}
	for _, name := range split(*sweeps) {
		rep.Entries = append(rep.Entries, measureSweep(name, *delta)...)
	}
	for _, f := range split(*figs) {
		rep.Entries = append(rep.Entries, measureFigure(f, *delta))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	} else {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	}

	if *baseline != "" {
		if failed := gate(rep, *baseline, *threshold); failed {
			os.Exit(1)
		}
	}
}

type notesFlag []string

func (n *notesFlag) String() string     { return strings.Join(*n, "; ") }
func (n *notesFlag) Set(v string) error { *n = append(*n, v); return nil }

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// measure runs fn cold and returns its wall clock and allocation count.
// The GC runs first so the measured window starts from a settled heap.
func measure(fn func()) (float64, uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs
}

// measureSingle times one simulation at its default scale (plus delta).
func measureSingle(bench string, delta int) Entry {
	// Build the workload outside the measured window: input generation is
	// memoized process-wide and not part of the simulator's hot loop.
	if _, err := kernels.Build(kernels.Spec{Kernel: bench, Scale: blp.DefaultScale(bench) + delta}); err != nil {
		log.Fatalf("single %s build: %v", bench, err)
	}
	var res *blp.Result
	wall, allocs := measure(func() {
		var err error
		res, err = blp.Run(blp.Options{Benchmark: bench, Scale: blp.DefaultScale(bench) + delta})
		if err != nil {
			log.Fatalf("single %s: %v", bench, err)
		}
	})
	e := Entry{
		Name:        "single/" + bench,
		WallSeconds: wall,
		Allocs:      allocs,
		SimCycles:   res.Cycles,
	}
	if wall > 0 {
		e.SimCyclesPerSec = float64(res.Cycles) / wall
	}
	if res.Cycles > 0 {
		e.AllocsPerSimKCycle = float64(allocs) / float64(res.Cycles) * 1000
	}
	log.Printf("%-12s %8.2fs  %12d cycles  %10.0f simcycles/s  %9d allocs",
		e.Name, e.WallSeconds, e.SimCycles, e.SimCyclesPerSec, e.Allocs)
	return e
}

// sweepOptions is the canonical 6-point timing sweep over one sliced
// workload: the batched-replay headline scenario (one capture, one
// shared-decode batch) and its live-serial reference.
func sweepOptions(bench string, delta int) []blp.Options {
	scale := blp.DefaultScale(bench) + delta
	return []blp.Options{
		{Benchmark: bench, Scale: scale, Mode: blp.SliceOuter},
		{Benchmark: bench, Scale: scale, Mode: blp.SliceOuter, Predictor: "oracle"},
		{Benchmark: bench, Scale: scale, Mode: blp.SliceOuter, FRQSize: 2},
		{Benchmark: bench, Scale: scale, Mode: blp.SliceOuter, ROBBlockSize: 4},
		{Benchmark: bench, Scale: scale, Mode: blp.SliceOuter, Reserve: 16},
		{Benchmark: bench, Scale: scale, Mode: blp.SliceOuter, WrongPathMemAccess: true},
	}
}

// measureSweep times the 6-point sweep twice: live (six independent
// simulations, each running the functional emulator — the pre-replay
// cost of a sweep) and through a serial Runner, which captures the trace
// once and runs all six configurations as one batched replay over a
// shared decode ring.
func measureSweep(bench string, delta int) []Entry {
	sweep := sweepOptions(bench, delta)
	if _, err := kernels.Build(kernels.Spec{Kernel: bench, Scale: sweep[0].Scale}); err != nil {
		log.Fatalf("sweep %s build: %v", bench, err)
	}
	liveWall, liveAllocs := measure(func() {
		for _, o := range sweep {
			if _, err := blp.Run(o); err != nil {
				log.Fatalf("sweep %s live: %v", bench, err)
			}
		}
	})
	var st blp.RunnerStats
	batchWall, batchAllocs := measure(func() {
		r := blp.NewRunner(1)
		if _, err := r.RunAll(sweep); err != nil {
			log.Fatalf("sweep %s batched: %v", bench, err)
		}
		st = r.Stats()
	})
	if st.Batched != len(sweep) || st.Captured != 1 {
		log.Fatalf("sweep %s did not run as one batch: %+v", bench, st)
	}
	live := Entry{Name: "sweep6/" + bench + "/live", WallSeconds: liveWall, Allocs: liveAllocs}
	bat := Entry{Name: "sweep6/" + bench + "/batched", WallSeconds: batchWall, Allocs: batchAllocs}
	log.Printf("%-12s %8.2fs  %9d allocs", live.Name, live.WallSeconds, live.Allocs)
	log.Printf("%-12s %8.2fs  %9d allocs  (%.2fx vs live)",
		bat.Name, bat.WallSeconds, bat.Allocs, liveWall/batchWall)
	return []Entry{live, bat}
}

// measureFigure times one figure end to end, serially and with a fresh run
// cache (cold), matching `experiments -fig <f> -jobs 1` on a warm input
// cache.
func measureFigure(fig string, delta int) Entry {
	r := blp.NewRunner(1)
	run := func() (*blp.Figure, error) {
		switch fig {
		case "motivation":
			return r.Motivation(delta)
		case "4":
			return r.Fig4(delta)
		case "5":
			return r.Fig5(delta)
		case "6":
			return r.Fig6(delta)
		case "7":
			return r.Fig7(delta, nil)
		case "8":
			return r.Fig8(delta, nil)
		case "9":
			return r.Fig9(delta)
		case "10":
			return r.Fig10(delta, 4, 1)
		case "11":
			return r.Fig11(delta)
		}
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
	wall, allocs := measure(func() {
		if _, err := run(); err != nil {
			log.Fatalf("fig %s: %v", fig, err)
		}
	})
	e := Entry{Name: "fig" + fig, WallSeconds: wall, Allocs: allocs}
	log.Printf("%-12s %8.2fs  %9d allocs", e.Name, e.WallSeconds, e.Allocs)
	return e
}

// summarizeLedger reads an experiment ledger back (see store.ReadLedger)
// and prints the campaign trajectory: every computation the store's
// history records, grouped by behavior version and benchmark, with the
// wall clock actually spent simulating. Unlike the object store the
// ledger is never evicted or invalidated, so this is the full history —
// including work whose results a version bump has since retired.
func summarizeLedger(path string) error {
	entries, err := store.ReadLedger(path)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		log.Print("ledger is empty")
		return nil
	}
	type agg struct {
		results, traces int
		cycles          int64
		wall            float64
	}
	versions := []string{} // first-seen order: the campaign's version trajectory
	byVer := map[string]map[string]*agg{}
	var totalWall float64
	for _, e := range entries {
		bv := byVer[e.Version]
		if bv == nil {
			bv = map[string]*agg{}
			byVer[e.Version] = bv
			versions = append(versions, e.Version)
		}
		a := bv[e.Benchmark]
		if a == nil {
			a = &agg{}
			bv[e.Benchmark] = a
		}
		switch e.Kind {
		case "trace":
			a.traces++
		default:
			a.results++
			a.cycles += e.Cycles
		}
		a.wall += e.WallSeconds
		totalWall += e.WallSeconds
	}
	first, last := entries[0].Time, entries[len(entries)-1].Time
	log.Printf("ledger: %d entries, %s .. %s, %.1fs simulator wall clock",
		len(entries), first, last, totalWall)
	for _, v := range versions {
		log.Printf("behavior %s:", v)
		names := make([]string, 0, len(byVer[v]))
		for b := range byVer[v] {
			names = append(names, b)
		}
		sort.Strings(names)
		for _, b := range names {
			a := byVer[v][b]
			log.Printf("  %-12s %4d results  %3d traces  %14d cycles  %8.2fs",
				b, a.results, a.traces, a.cycles, a.wall)
		}
	}
	return nil
}

// Gate limits. Wall clock is gated only on entries of at least
// wallGateMin seconds in the baseline: ten times the 0.1 s floor below
// which timer and scheduler noise dominate a percentage comparison.
// Allocation counts may grow by allocBand: repeated runs of one build on
// one host spread by at most 0.1%, and the band leaves room for runtime
// differences between Go releases.
const (
	wallGateMin = 1.0
	allocBand   = 0.05
)

// gate compares a report against a baseline report, entry by entry, and
// reports whether any shared entry failed: simulated cycles must repeat
// exactly, allocations may not grow beyond allocBand, and wall clock may
// not regress beyond threshold where the baseline entry is long enough
// to time.
func gate(rep *Report, baselinePath string, threshold float64) bool {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("%s: %v", baselinePath, err)
	}
	if base.Delta != rep.Delta {
		log.Printf("warning: baseline delta %d != measured delta %d; entries are not comparable", base.Delta, rep.Delta)
	}
	old := map[string]Entry{}
	for _, e := range base.Entries {
		old[e.Name] = e
	}
	failed := false
	for _, e := range rep.Entries {
		b, ok := old[e.Name]
		if !ok {
			continue
		}
		for _, c := range compareEntry(e, b, threshold) {
			status := "ok"
			if !c.ok {
				status = "FAILED"
				failed = true
			}
			log.Printf("gate %-18s %-7s %s %s", e.Name, c.what, c.detail, status)
		}
	}
	return failed
}

// check is one comparison of a measured entry against its baseline.
type check struct {
	what   string
	detail string
	ok     bool
}

// compareEntry runs every comparison the baseline entry supports.
func compareEntry(e, b Entry, threshold float64) []check {
	var cs []check
	if b.SimCycles > 0 {
		cs = append(cs, check{"cycles", fmt.Sprintf("%d vs %d baseline", e.SimCycles, b.SimCycles),
			e.SimCycles == b.SimCycles})
	}
	if b.Allocs > 0 {
		ratio := float64(e.Allocs) / float64(b.Allocs)
		cs = append(cs, check{"allocs", fmt.Sprintf("%d vs %d baseline (%.3fx)", e.Allocs, b.Allocs, ratio),
			ratio <= 1+allocBand})
	}
	if b.WallSeconds >= wallGateMin {
		ratio := e.WallSeconds / b.WallSeconds
		cs = append(cs, check{"wall", fmt.Sprintf("%.2fs vs %.2fs baseline (%.2fx)", e.WallSeconds, b.WallSeconds, ratio),
			ratio <= 1+threshold})
	}
	return cs
}
