// Package sim drives whole-system simulations: it assembles cores, cache
// hierarchies, and the shared uncore; interleaves cores cycle by cycle;
// coordinates OpenMP-style barriers across all hardware threads; and
// collects the statistics the paper's figures report.
package sim

import (
	"context"
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/flight"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uncore"
)

// MemConfig sizes the cache hierarchy. The default (ScaledMemConfig) is
// the paper's Table 1 hierarchy scaled down ~8× so that the scaled-down
// input graphs keep the paper's footprint-to-LLC ratio (misses in the LLC
// at the paper's 45-70% rate); Table1MemConfig is the full-size original.
type MemConfig struct {
	L1ISize, L1IWays, L1ILatency int
	L1DSize, L1DWays, L1DLatency int
	L2Size, L2Ways, L2Latency    int
	MSHRs                        int

	Uncore uncore.Config

	// Prefetchers: a stride prefetcher at L1D and a next-line
	// prefetcher at L2 (the paper's Fig. 7 discussion references the
	// data prefetcher).
	StridePrefetch   bool
	NextLinePrefetch bool
}

// Table1MemConfig is the full-size hierarchy of the paper's Table 1,
// shared resources scaled to the given core count as §5.2 prescribes.
func Table1MemConfig(cores int) MemConfig {
	return MemConfig{
		L1ISize: 32 << 10, L1IWays: 8, L1ILatency: 1,
		L1DSize: 32 << 10, L1DWays: 8, L1DLatency: 4,
		L2Size: 1 << 20, L2Ways: 16, L2Latency: 14,
		MSHRs: 10,
		Uncore: uncore.Config{
			Cores:            cores,
			LLCPerCore:       1408 << 10, // 1.375 MB
			LLCWays:          11,
			LLCLatency:       30,
			MeshHopLatency:   2,
			MemLatency:       150,                        // ≈50 ns at 3 GHz
			MemBytesPerCycle: 38.4 / 28 * float64(cores), // 115.2 GB/s at 3 GHz, per §5.2 scaling
			LLCMSHRs:         32 * cores,
		},
		StridePrefetch:   true,
		NextLinePrefetch: true,
	}
}

// ScaledMemConfig shrinks the hierarchy so that the scaled-down benchmark
// inputs exercise the paper's regime — per-vertex property arrays larger
// than the LLC (45-70% LLC miss rate on the indirect accesses), memory
// latency-bound rather than bandwidth-bound (DRAM bus under ~40% busy).
// See DESIGN.md's calibration notes.
func ScaledMemConfig(cores int) MemConfig {
	m := Table1MemConfig(cores)
	m.L1ISize = 8 << 10
	m.L1DSize = 4 << 10
	m.L2Size = 8 << 10
	m.L2Ways = 8
	m.Uncore.LLCPerCore = 16 << 10
	m.Uncore.LLCWays = 8
	m.Uncore.MemBytesPerCycle = 8 * float64(cores)
	return m
}

// DefaultWatchdogCycles is the no-commit watchdog threshold used when
// Config.WatchdogCycles is zero.
const DefaultWatchdogCycles = 1_000_000

// paranoidFF, set via SFSIM_PARANOID=1, steps supposedly idle windows
// cycle-by-cycle and panics if a core does anything — a debugging aid for
// NextWake's completeness, too slow for regular use.
var paranoidFF = os.Getenv("SFSIM_PARANOID") == "1"

// Config is a whole-system configuration.
type Config struct {
	Core  core.Config
	Mem   MemConfig
	Cores int
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// WatchdogCycles aborts a run (with a diagnostic dump) when no core
	// commits an instruction for this many consecutive cycles. 0 selects
	// DefaultWatchdogCycles; negative values fail validation.
	WatchdogCycles int64
	// CheckIndependence turns on the emulator's slice-discipline
	// checker (slower; for tests).
	CheckIndependence bool
	// Recorder, when non-nil, receives timeline samples (every
	// Recorder.Interval cycles) and the cores' pipeline events — the
	// opt-in flight recorder of internal/flight. Nil costs one pointer
	// check per cycle and changes no results.
	Recorder *flight.Recorder
	// Ctx, when non-nil, lets the caller cancel a run in progress: the
	// driver loop polls Ctx.Done() every ctxCheckIters iterations
	// (alongside its other per-iteration obligations — watchdog,
	// MaxCycles, timeline sampling) and returns an error wrapping
	// Ctx.Err(). Polling changes no simulated state, so results stay
	// byte-identical whether or not a context is attached.
	Ctx context.Context
	// Replay, when non-nil, feeds the core's frontend from a captured
	// instruction trace (internal/trace) instead of stepping the
	// functional emulator — the capture-once/simulate-many decoupling of
	// the paper's Pin + Sniper split. Results are byte-identical to a
	// live run of the same workload. Replay is restricted to
	// single-hardware-thread configurations (a multicore emu-step
	// interleaving is timing-dependent through shared-memory atomics, so
	// a per-thread trace would not be config-invariant) and is
	// incompatible with CheckIndependence (the checker lives in the live
	// emulator).
	Replay *trace.Trace
}

// DefaultConfig is a single-core scaled configuration.
func DefaultConfig() Config {
	return Config{
		Core:           core.DefaultConfig(),
		Mem:            ScaledMemConfig(1),
		Cores:          1,
		MaxCycles:      2_000_000_000,
		WatchdogCycles: DefaultWatchdogCycles,
	}
}

// Workload is a runnable program set: one program per hardware thread
// (cores × SMT), sharing one memory image.
type Workload struct {
	Name string
	// Progs has one program per hardware thread. With a single entry
	// and multiple threads, the entry is shared (every thread runs the
	// same code — only correct if the program partitions work by
	// thread itself, which our kernels do via distinct programs
	// instead; see internal/kernels).
	Progs []*isa.Program
	Mem   []byte
	// Check validates the final memory image against a host-computed
	// reference (optional).
	Check func(mem []byte) error
}

// Result carries per-core and aggregate statistics.
type Result struct {
	Cycles  int64
	Total   core.Stats
	PerCore []core.Stats
	// CacheStats snapshots selected hierarchy counters.
	L1DMissRate float64
	LLCMissRate float64
	L2MissRate  float64
	// DRAMLines counts memory line transfers; DRAMBusy is the fraction
	// of total cycles the memory bus was transferring.
	DRAMLines uint64
	DRAMBusy  float64
	// Access and miss counts per level, aggregated across every core's
	// private hierarchy (the LLC is shared).
	L1DAccesses uint64
	L1DMisses   uint64
	L2Accesses  uint64
	L2Misses    uint64
	LLCAccesses uint64
	LLCMisses   uint64
}

// ctxCheckIters is how many driver-loop iterations elapse between
// context-cancellation polls. Iterations (not cycles) are the unit of
// wall-clock work here — idle fast-forward can jump thousands of cycles
// in one iteration — so this bounds cancellation latency to ~a
// millisecond of simulation regardless of configuration. A nil receive
// channel never fires, so runs without a context pay one counter
// increment.
const ctxCheckIters = 1024

// lane is one simulation in flight: the assembled cores and hierarchy
// plus the driver loop's cursor state. Run is newLane + step-until-done +
// finish; RunBatch interleaves several single-thread lanes, each holding
// a view over one shared trace decode. The split changes nothing about
// what a step does — step() is the body of Run's historical driver loop,
// verbatim.
type lane struct {
	cfg Config
	w   *Workload

	cores []*core.Core
	hiers []*cache.Hierarchy
	llc   *cache.Cache
	dram  *cache.Memory

	watchdog  int64
	maxCycles int64
	rec       *flight.Recorder
	tl        *timeline
	ctxDone   <-chan struct{}

	iters           int64
	now             int64
	lastCommit      uint64
	lastCommitCycle int64
}

// newLane validates the configuration and assembles cores, hierarchies
// and the uncore. fes, when non-nil, supplies one prebuilt frontend per
// hardware thread (RunBatch's trace views); otherwise frontends come from
// cfg.Replay or a live emulator as before.
func newLane(cfg Config, w *Workload, fes []emu.Frontend) (*lane, error) {
	threadsTotal := cfg.Cores * cfg.Core.SMT
	if len(w.Progs) != threadsTotal {
		return nil, fmt.Errorf("sim: workload %s has %d programs for %d hardware threads",
			w.Name, len(w.Progs), threadsTotal)
	}
	if fes != nil && len(fes) != threadsTotal {
		return nil, fmt.Errorf("sim: workload %s has %d prebuilt frontends for %d hardware threads",
			w.Name, len(fes), threadsTotal)
	}

	watchdog := cfg.WatchdogCycles
	if watchdog == 0 {
		watchdog = DefaultWatchdogCycles
	} else if watchdog < 0 {
		return nil, fmt.Errorf("sim: WatchdogCycles must be positive, got %d", cfg.WatchdogCycles)
	}

	llc, dram := uncore.Build(cfg.Mem.Uncore)
	hc := cache.HierConfig{
		L1I: cache.Config{Name: "l1i", SizeBytes: cfg.Mem.L1ISize, Ways: cfg.Mem.L1IWays,
			HitLatency: cfg.Mem.L1ILatency, MSHRs: cfg.Mem.MSHRs},
		L1D: cache.Config{Name: "l1d", SizeBytes: cfg.Mem.L1DSize, Ways: cfg.Mem.L1DWays,
			HitLatency: cfg.Mem.L1DLatency, MSHRs: cfg.Mem.MSHRs,
			StridePrefetch: cfg.Mem.StridePrefetch},
		L2: cache.Config{Name: "l2", SizeBytes: cfg.Mem.L2Size, Ways: cfg.Mem.L2Ways,
			HitLatency: cfg.Mem.L2Latency, MSHRs: 2 * cfg.Mem.MSHRs,
			NextLinePrefetch: cfg.Mem.NextLinePrefetch},
	}

	if cfg.Replay != nil {
		if threadsTotal != 1 {
			return nil, fmt.Errorf("sim: workload %s: trace replay supports exactly one hardware thread, got %d",
				w.Name, threadsTotal)
		}
		if cfg.CheckIndependence {
			return nil, fmt.Errorf("sim: workload %s: trace replay is incompatible with CheckIndependence",
				w.Name)
		}
	}

	// All frontends share the workload's memory image.
	mem := w.Mem
	cfg.Core.Recorder = cfg.Recorder
	cores := make([]*core.Core, cfg.Cores)
	hiers := make([]*cache.Hierarchy, cfg.Cores)
	ti := 0
	for i := range cores {
		lfes := make([]emu.Frontend, cfg.Core.SMT)
		for j := range lfes {
			if fes != nil {
				lfes[j] = fes[ti]
			} else if cfg.Replay != nil {
				r, err := trace.NewReplay(cfg.Replay, w.Progs[ti], mem)
				if err != nil {
					return nil, fmt.Errorf("sim: workload %s: %w", w.Name, err)
				}
				lfes[j] = r
			} else {
				m := emu.New(w.Progs[ti], mem)
				m.CheckIndependence = cfg.CheckIndependence
				lfes[j] = emu.AsFrontend(m)
			}
			ti++
		}
		hiers[i] = cache.NewHierarchy(hc, llc, dram)
		c, err := core.NewCoreFrontends(i, cfg.Core, hiers[i], lfes)
		if err != nil {
			return nil, err
		}
		cores[i] = c
	}

	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 2_000_000_000
	}

	rec := cfg.Recorder
	var tl *timeline
	if rec != nil && rec.Interval > 0 {
		tl = newTimeline(rec, cfg.Cores)
	}

	var ctxDone <-chan struct{}
	if cfg.Ctx != nil {
		ctxDone = cfg.Ctx.Done()
	}

	return &lane{
		cfg: cfg, w: w,
		cores: cores, hiers: hiers, llc: llc, dram: dram,
		watchdog: watchdog, maxCycles: maxCycles,
		rec: rec, tl: tl, ctxDone: ctxDone,
	}, nil
}

// step advances the simulation by one driver-loop iteration (one cycle,
// or an idle fast-forward window). It returns finished=true when every
// core is done; an error aborts the run (cancellation, MaxCycles,
// watchdog).
func (l *lane) step() (finished bool, err error) {
	cfg := &l.cfg
	w := l.w
	cores := l.cores
	rec := l.rec

	l.now++
	if l.iters++; l.iters%ctxCheckIters == 0 && l.ctxDone != nil {
		select {
		case <-l.ctxDone:
			return false, fmt.Errorf("sim: workload %s canceled at cycle %d: %w",
				w.Name, l.now, cfg.Ctx.Err())
		default:
		}
	}
	if l.now > l.maxCycles {
		return false, fmt.Errorf("sim: workload %s exceeded %d cycles", w.Name, l.maxCycles)
	}
	// Deadlock watchdog: no commit anywhere for a long time.
	var committed uint64
	for _, c := range cores {
		committed += c.Stats().Committed
	}
	if committed != l.lastCommit {
		l.lastCommit, l.lastCommitCycle = committed, l.now
	} else if l.now-l.lastCommitCycle > l.watchdog {
		return false, fmt.Errorf("sim: workload %s deadlocked at cycle %d:\n%s",
			w.Name, l.now, deadlockDump(l.now, cores, rec))
	}
	if l.tl != nil && l.now%rec.Interval == 0 {
		l.tl.sample(l.now, cores, l.hiers, l.llc)
	}
	done := true
	for _, c := range cores {
		if !c.Done() {
			c.Cycle(l.now)
			done = false
		}
	}
	if done {
		return true, nil
	}
	releaseBarriers(cores)

	// Idle fast-forward: jump over cycle spans where no core can make
	// progress (all waiting on timed events such as memory fills).
	// The jump lands one cycle before the earliest wake source so the
	// boundary cycle executes normally, and is capped so that every
	// per-cycle obligation of this loop still happens on schedule: the
	// next timeline sample, the watchdog firing cycle, and the
	// MaxCycles abort. Barriers need no cap — releaseBarriers ran
	// above, so a post-release wake is already visible to NextWake.
	// Cores replicate the skipped cycles' statistics exactly
	// (core.SkipTo), keeping results byte-identical to per-cycle
	// stepping.
	if !cfg.Core.ForceCycleAccurate {
		wake := int64(1) << 62
		live := false
		for _, c := range cores {
			if c.Done() {
				continue
			}
			live = true
			if nw := c.NextWake(); nw < wake {
				wake = nw
			}
		}
		if !live {
			// Every core finished during this iteration; the next
			// loop pass will observe it and break. Jumping here
			// would inflate the final cycle count.
			return false, nil
		}
		if paranoidFF && wake > l.now+1 {
			for _, c := range cores {
				if !c.Done() {
					c.Cycle(l.now + 1)
					if c.LastCycleActive() {
						panic(fmt.Sprintf("paranoid: core active at %d though wake=%d\n%s", l.now+1, wake, c.DumpState()))
					}
				}
			}
			l.now++
			return false, nil
		}
		target := wake - 1
		if l.tl != nil {
			if next := l.now - l.now%rec.Interval + rec.Interval; next-1 < target {
				target = next - 1
			}
		}
		if deadline := l.lastCommitCycle + l.watchdog; deadline < target {
			target = deadline
		}
		if l.maxCycles < target {
			target = l.maxCycles
		}
		if target > l.now {
			// Cancellation check before committing the jump: a single
			// fast-forward can cover an arbitrarily long idle window
			// (a slow-memory stall runs to tens of millions of
			// cycles), and a run with few active cycles may finish
			// before the iteration counter ever reaches its polling
			// interval — so a canceled caller must not be carried
			// across the window by the counter-based poll alone.
			// Like that poll, this changes no simulated state.
			if l.ctxDone != nil && target-l.now >= ctxCheckIters {
				select {
				case <-l.ctxDone:
					return false, fmt.Errorf("sim: workload %s canceled at cycle %d: %w",
						w.Name, l.now, cfg.Ctx.Err())
				default:
				}
			}
			for _, c := range cores {
				if !c.Done() {
					c.SkipTo(target)
				}
			}
			l.now = target
		}
	}
	return false, nil
}

// finish runs the end-of-simulation checks and assembles the Result.
func (l *lane) finish() (*Result, error) {
	// Every core must have returned every microarchitectural resource:
	// leaks here mean a recovery path lost track of a uop even though the
	// run "finished". Cheap (runs once), so always on.
	for _, c := range l.cores {
		if err := c.CheckQuiescent(); err != nil {
			return nil, fmt.Errorf("sim: workload %s not quiescent: %w", l.w.Name, err)
		}
	}

	if l.w.Check != nil {
		if err := l.w.Check(l.w.Mem); err != nil {
			return nil, fmt.Errorf("sim: workload %s output check failed: %w", l.w.Name, err)
		}
	}

	res := &Result{Cycles: l.now}
	for _, c := range l.cores {
		s := *c.Stats()
		res.PerCore = append(res.PerCore, s)
		res.Total.Add(&s)
	}
	res.Total.Cycles = l.now
	collectCacheStats(res, l.hiers, l.llc, l.dram, l.now)
	return res, nil
}

// Run simulates the workload to completion and returns statistics.
func Run(cfg Config, w *Workload) (*Result, error) {
	l, err := newLane(cfg, w, nil)
	if err != nil {
		return nil, err
	}
	for {
		finished, err := l.step()
		if err != nil {
			return nil, err
		}
		if finished {
			break
		}
	}
	return l.finish()
}

// collectCacheStats fills Result's cache counters, aggregating accesses
// and misses across every core's private hierarchy (miss rates are
// computed on the aggregated counts, not core 0's).
func collectCacheStats(res *Result, hiers []*cache.Hierarchy, llc *cache.Cache, dram *cache.Memory, cycles int64) {
	for _, h := range hiers {
		l1d, l2 := h.L1D.Stats(), h.L2.Stats()
		res.L1DAccesses += l1d.Accesses
		res.L1DMisses += l1d.Misses
		res.L2Accesses += l2.Accesses
		res.L2Misses += l2.Misses
	}
	if res.L1DAccesses > 0 {
		res.L1DMissRate = float64(res.L1DMisses) / float64(res.L1DAccesses)
	}
	if res.L2Accesses > 0 {
		res.L2MissRate = float64(res.L2Misses) / float64(res.L2Accesses)
	}
	ls := llc.Stats()
	res.LLCAccesses = ls.Accesses
	res.LLCMisses = ls.Misses
	res.LLCMissRate = ls.MissRate()
	res.DRAMLines = dram.Accesses()
	res.DRAMBusy = float64(dram.Accesses()) * dram.CyclesPerLine / float64(cycles)
}

// releaseBarriers implements the global OpenMP barrier: when every
// unfinished hardware thread is waiting at its barrier, release them all.
// The first unfinished thread found running ends the check, which on most
// cycles is the first thread.
func releaseBarriers(cores []*core.Core) {
	live := false
	for _, c := range cores {
		for i := 0; i < c.Threads(); i++ {
			if c.ThreadDone(i) {
				continue
			}
			if !c.BarrierWaiting(i) {
				return
			}
			live = true
		}
	}
	if !live {
		return
	}
	for _, c := range cores {
		for i := 0; i < c.Threads(); i++ {
			if !c.ThreadDone(i) {
				c.ReleaseBarrier(i)
			}
		}
	}
}
