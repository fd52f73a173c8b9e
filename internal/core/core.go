package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/flight"
	"repro/internal/isa"
	"repro/internal/rob"
)

// Core is one out-of-order core instance. Threads (SMT contexts) share the
// ROB space, reservation stations, load/store queues, and the cache
// hierarchy; each thread has its own trace machine, predictor, rename
// table, logical ROB order, and fetch redirect queue.
type Core struct {
	cfg  Config
	id   int
	hier *cache.Hierarchy
	// rec is the optional flight recorder (cfg.Recorder); nil disables
	// every hook.
	rec *flight.Recorder

	threads []*thread
	running int // threads that have not committed their halt

	// policy is the configured mispredict-recovery policy (policy.go).
	// selEligible caches policy.SelectiveEligible() for the fetch and
	// dispatch hot paths; polFetch caches the optional fetchHooks
	// assertion (nil for policies without fetch-side behavior, so the
	// legacy policies pay one nil check); draining counts threads with a
	// staged partial flush in progress (drainStep runs only then, and
	// NextWake must not fast-forward over it).
	policy      RecoveryPolicy
	selEligible bool
	polFetch    fetchHooks
	draining    int

	space  *rob.Space
	rsUsed int
	lqUsed int
	sqUsed int
	// inSliceCount tracks in-slice instructions in the ROB: while
	// non-zero, resource reservation for resolve paths is active (§4.7).
	inSliceCount int

	rs []*uop // legacy scan path only: dispatched, waiting to issue (dispatch order)
	// readyQ holds uops whose operands are all available, awaiting an
	// issue port; specials holds operand-ready uops whose issue is gated
	// on a polled condition (reduce-at-head, barrier release).
	readyQ     []readyRef
	specials   []readyRef
	ready_     []*uop  // per-cycle scratch for age-sorted ready instructions
	longUntil  []int64 // completion times of in-flight long-latency loads
	longMin    int64   // earliest entry of longUntil (farFuture when empty)
	events     eventHeap
	pool       []*uop
	segPool    []*segBuf
	rtblPool   []*renameTable    // recycled missInfo.rtbl tables
	feqPool    [][]*uop          // recycled missInfo.feq queues
	victimBuf  []*rob.Node[*uop] // reused by partialFlush's victim walk
	ckPool     []*renameSnapshot // recycled uop.ck checkpoints
	nextID     uint64
	dispSeqCtr uint64 // dispatch-order tie-break counter
	forceCyc   bool   // cfg.ForceCycleAccurate cached

	now                int64
	stats              Stats
	committedThisCycle int
	traced             int64
	// traceOn caches cfg.Trace != nil so hot paths can skip building
	// trace arguments entirely.
	traceOn bool
	// activity records whether this cycle changed any pipeline state
	// (completion, commit, issue, dispatch, fetch delivery); the idle
	// fast-forward in NextWake consults it.
	activity bool

	fetchRR    int
	dispatchRR int
	commitRR   int
}

// NewCore builds a core running the given machines (one per SMT thread).
func NewCore(id int, cfg Config, hier *cache.Hierarchy, machines []*emu.Machine) (*Core, error) {
	fes := make([]emu.Frontend, len(machines))
	for i, m := range machines {
		fes[i] = emu.AsFrontend(m)
	}
	return NewCoreFrontends(id, cfg, hier, fes)
}

// NewCoreFrontends is NewCore over explicit instruction sources (one per
// SMT thread): live emulator machines wrapped by emu.AsFrontend, or trace
// replayers feeding a captured stream (internal/trace).
func NewCoreFrontends(id int, cfg Config, hier *cache.Hierarchy, fes []emu.Frontend) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(fes) != cfg.SMT {
		return nil, fmt.Errorf("core: %d frontends for SMT%d", len(fes), cfg.SMT)
	}
	pol, err := newPolicy(&cfg)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:      cfg,
		id:       id,
		hier:     hier,
		rec:      cfg.Recorder,
		policy:   pol,
		space:    rob.NewSpace(cfg.ROBSize, cfg.ROBBlockSize),
		traceOn:  cfg.Trace != nil,
		forceCyc: cfg.ForceCycleAccurate,
		longMin:  farFuture,
	}
	c.selEligible = pol.SelectiveEligible()
	c.polFetch, _ = pol.(fetchHooks)
	for i, fe := range fes {
		c.threads = append(c.threads, newThread(i, c, fe))
	}
	c.running = len(c.threads)
	return c, nil
}

// Stats returns the core's counters (valid after/while running).
func (c *Core) Stats() *Stats { return &c.stats }

// Done reports whether every thread has committed its halt.
func (c *Core) Done() bool { return c.running == 0 }

// Threads returns the number of SMT contexts.
func (c *Core) Threads() int { return len(c.threads) }

// ThreadDone reports whether thread i has finished.
func (c *Core) ThreadDone(i int) bool { return c.threads[i].done }

// BarrierWaiting reports whether thread i is stalled at a barrier.
func (c *Core) BarrierWaiting(i int) bool { return c.threads[i].barrierWait }

// ReleaseBarrier lets thread i's pending barrier instruction complete.
func (c *Core) ReleaseBarrier(i int) {
	t := c.threads[i]
	if t.barrierUop != nil {
		t.barrierUop.barrierOK = true
	}
	t.barrierWait = false
	t.barrierUop = nil
}

// Cycle advances the core by one clock. Phase order: complete (execute
// results and branch resolutions), commit, issue, dispatch, fetch — so a
// result completing this cycle can be committed this cycle, while newly
// fetched instructions wait at least one cycle per stage.
func (c *Core) Cycle(now int64) {
	c.now = now
	c.committedThisCycle = 0
	c.activity = false

	c.complete()
	if c.draining > 0 {
		c.drainStep()
	}
	c.commit()
	c.issue()
	c.dispatch()
	fetchedBefore := c.stats.FetchNormal + c.stats.FetchWrong + c.stats.FetchResolve
	c.fetch()
	if c.stats.FetchNormal+c.stats.FetchWrong+c.stats.FetchResolve == fetchedBefore {
		c.stats.FetchIdle++
	} else {
		c.activity = true
	}

	if debugChecks {
		c.checkInvariants()
	}
	c.accountCycle()
	c.stats.Cycles = now
	c.stats.ROBOccupancySum += uint64(c.space.Used())
	if c.longMin <= now {
		c.expireLongLoads()
	}
	c.stats.OutstandingSum += uint64(len(c.longUntil))
}

// expireLongLoads drops the long-latency loads that completed by now
// from longUntil. Cycle calls it only once the earliest entry is due.
func (c *Core) expireLongLoads() {
	live := c.longUntil[:0]
	c.longMin = farFuture
	for _, at := range c.longUntil {
		if at > c.now {
			live = append(live, at)
			c.longMin = min(c.longMin, at)
		}
	}
	c.longUntil = live
}

// complete retires execution events due at or before now and performs
// branch recovery for resolved mispredictions.
func (c *Core) complete() {
	for len(c.events) > 0 && c.events[0].at <= c.now {
		ev := c.events.pop()
		u := ev.u
		if u.id != ev.id || u.state != stIssued {
			continue // stale event for a flushed/recycled uop
		}
		u.state = stDone
		u.doneAt = ev.at
		c.activity = true
		c.wakeWaiters(u)
		if u.d.IsBranch() && !u.d.Wrong {
			c.resolveBranch(u)
		}
	}
}

// farFuture is NextWake's "no internal wake source" value; the sim driver
// caps every jump at the watchdog deadline and the next timeline sample,
// so an idle core with no timers simply waits on external events (barrier
// release, other cores).
const farFuture = int64(1) << 62

// NextWake reports the earliest future cycle at which this core's state
// can change, for the sim driver's idle fast-forward: now+1 when the
// current cycle did anything (or something is already issuable), else the
// minimum over the pending wake sources — the next completion event
// (which also bounds every longUntil expiry and MSHR fill, since those
// times were scheduled as events), frontend-delay expiries, fetch-stall
// and redirect timers. redirectUntil participates even though it gates
// nothing directly: classifyStall compares it against now, and SkipTo's
// batch accounting is only valid while that comparison cannot flip.
//
// Every non-timed stall is covered by one of those sources: dispatch
// blocked on resources needs a commit or flush (a completion event);
// commit blocked needs a completion or a dispatch; fetch blocked on a
// barrier or fence waits for the simulator release (the driver re-polls
// after releaseBarriers) or a resolution event. If no source exists the
// core is deadlocked, and the watchdog cap makes the driver tick through
// to the firing cycle exactly as the per-cycle loop would.
func (c *Core) NextWake() int64 {
	if c.activity || c.draining > 0 || len(c.readyQ) > 0 {
		return c.now + 1
	}
	for _, e := range c.specials {
		if e.u.id == e.id && e.u.state == stWaiting && c.specialReady(e.u) {
			return c.now + 1
		}
	}
	wake := farFuture
	if len(c.events) > 0 {
		wake = c.events[0].at
	}
	for _, t := range c.threads {
		if t.done {
			continue
		}
		if len(t.frontend) > 0 {
			if r := t.frontend[0].readyFE; r > c.now && r < wake {
				wake = r
			}
		}
		for _, mi := range t.resolveMisses {
			if mi.feqHead < len(mi.feq) {
				if r := mi.feq[mi.feqHead].readyFE; r > c.now && r < wake {
					wake = r
				}
			}
		}
		if t.redirectUntil > c.now && t.redirectUntil < wake {
			wake = t.redirectUntil
		}
		// Fetch: mirror pickFetchThread's gating. A thread that could
		// fetch right now means no idle window at all (it would only be
		// in this state transiently — a fetchable thread fetches).
		if t.finishedFetching() && t.resolving == nil {
			continue
		}
		if t.fetchStallUntil > c.now {
			if t.fetchStallUntil < wake {
				wake = t.fetchStallUntil
			}
			continue
		}
		if (t.resolving == nil || t.resolving.stall != nil) &&
			len(t.frontend) >= c.cfg.FrontendQueue {
			continue // unblocks via dispatch, i.e. an event or readyFE expiry
		}
		if t.nextFetchPC() >= 0 {
			return c.now + 1
		}
	}
	return wake
}

// SkipTo fast-forwards the core over cycles now+1..target, all of which
// are guaranteed idle by NextWake (the driver only jumps to min(NextWake)
// - 1, capped at the next timeline sample and the watchdog deadline). It
// replicates exactly what per-cycle stepping would have recorded: the
// per-cycle stats (FetchIdle, occupancy and outstanding-miss sums, the
// cycle-stack component — constant across the window because every input
// of classifyStall is pipeline state that cannot change without activity,
// and the one time comparison is bounded by the jump), and the round-robin
// counters that advance even on idle cycles. The cycle-stack additions
// stay exact: all values are multiples of 1/CommitWidth far below 2^53,
// so batched float adds equal repeated ones bit-for-bit.
func (c *Core) SkipTo(target int64) {
	delta := target - c.now
	if delta <= 0 {
		return
	}
	// Classify once at the first skipped cycle; constant over the window.
	c.now++
	t, head := c.oldestHead()
	if head != nil && head.spliceHold != nil && !head.spliceHold.segDispatched && !head.spliceHold.cancelled {
		c.stats.HoldSplice += uint64(delta)
	}
	switch c.classifyStall(t, head) {
	case stallMem:
		c.stats.StackMem += float64(delta)
		c.stats.HoldMem += uint64(delta)
	case stallBranch:
		c.stats.StackBranch += float64(delta)
	case stallExec:
		c.stats.StackExec += float64(delta)
	default:
		c.stats.StackOther += float64(delta)
	}
	c.stats.FetchIdle += uint64(delta)
	c.stats.ROBOccupancySum += uint64(delta) * uint64(c.space.Used())
	c.stats.OutstandingSum += uint64(delta) * uint64(len(c.longUntil))
	// Idle cycles still advance the arbitration counters: fetch and
	// dispatch by one, commit by one full thread rotation.
	c.fetchRR += int(delta)
	c.dispatchRR += int(delta)
	c.commitRR += int(delta) * len(c.threads)
	c.now = target
	c.stats.Cycles = target
}

// LastCycleActive reports whether the most recent Cycle changed pipeline
// state (used by equivalence tests to validate NextWake's idle claims).
func (c *Core) LastCycleActive() bool { return c.activity }

// classPorts caps per-class issue bandwidth (a simplified Skylake port
// map: 4 ALU ports, 2 load, 1 store-address, 2 branch-capable, one
// divider). ClassSlice has none: slice markers are dropped at dispatch
// and never reach issue.
var classPorts = [isa.NumClasses]int{
	isa.ClassIntAlu:  4,
	isa.ClassIntMul:  2,
	isa.ClassIntDiv:  1,
	isa.ClassFp:      2,
	isa.ClassFpDiv:   1,
	isa.ClassLoad:    2,
	isa.ClassStore:   1,
	isa.ClassAtomic:  1,
	isa.ClassBranch:  2,
	isa.ClassNop:     4,
	isa.ClassBarrier: 1,
	isa.ClassHalt:    4,
}
