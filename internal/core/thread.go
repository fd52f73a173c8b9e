package core

import (
	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/frq"
	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/rob"
)

// fetchMode is the thread's current instruction source.
type fetchMode uint8

const (
	fmNormal fetchMode = iota // the correct-path trace (the Machine)
	fmWrong                   // a wrong path (the Shadow)
)

// thread is one hardware context: its architectural machine (trace
// source), predictor state, rename table, logical-order ROB list, frontend
// queue, and the selective-flush fetch state machine.
type thread struct {
	id int
	c  *Core

	m    emu.Frontend
	pred bpred.Predictor
	btb  *bpred.BTB

	rt   rename.Table[renameRef]
	list rob.List[*uop]
	// fq holds misses whose correct paths still need fetching; serviced
	// program-order-oldest-first (DESIGN.md, deviation 1).
	fq *frq.Queue[*missInfo]

	frontend []*uop
	// feBuf spans frontend's whole backing array (see enqueue).
	feBuf []*uop
	// resolveMisses lists the misses with fetched-but-undispatched
	// resolve-path instructions (each miss queues them in missInfo.feq —
	// the resolve channel, one FIFO per miss).
	resolveMisses []*missInfo

	// Fetch source state.
	mode       fetchMode
	shadow     emu.WrongPath
	shadowMiss *missInfo // in-slice miss whose wrong path is being fetched
	convMiss   *uop      // pending conventional miss: fetch stalls on its shadow
	wpStuck    bool      // shadow died before reaching its slice_end
	// wrongDir is the shadow's branch-direction callback, built once:
	// rebuilding the closure per fetchWrong call would heap-allocate per
	// wrong-path instruction now that Step is an interface call (escape
	// analysis cannot see through emu.WrongPath).
	wrongDir emu.BranchDir

	// Resolve-path fetch: the program-order-oldest pending FRQ entry.
	// The paper's FIFO discipline assumes detection order matches the
	// order commit needs; servicing oldest-first (with preemption when
	// an older miss resolves) implements the stated intent — "the
	// oldest instructions are executed first, such that commit is not
	// needlessly blocked" (§4.6) — and is what makes the §4.7
	// deadlock-freedom argument hold (see DESIGN.md).
	resolving *missInfo
	// holes tracks resolved misses whose correct paths have not fully
	// entered the ROB; unresolved tracks detected in-slice misses whose
	// branches have not executed yet. The oldest across both owns the
	// reserved resources.
	holes      []*missInfo
	unresolved []*missInfo
	// holeSeq caches oldestHoleSeq() while holeSeqOK is set; see
	// invalidateHoles for when it is cleared.
	holeSeq   uint64
	holeSeqOK bool

	// Dispatch's resolve candidates for the current pass (see
	// dispatchResolve): cands is the untried rest, in branch order,
	// candBuf its reused storage, and candsStale asks for a fresh
	// collection before the next resolve attempt.
	cands      []*missInfo
	candBuf    []*missInfo
	candsStale bool

	pendingMisses int // in-slice misses detected but not yet resolved
	fenceStall    bool
	barrierWait   bool
	barrierUop    *uop
	haltSeen      bool
	done          bool // halt committed; thread finished

	inflight        int    // dispatched, not yet committed (ICOUNT fetch policy)
	wpAge           uint64 // logical age assigned to wrong-path uops
	fetchStallUntil int64
	redirectUntil   int64 // refill window after a conventional flush
	lastILine       int

	stores []*uop // in-flight correct-path stores, program order

	// Staged-drain state for the partial policy: victims beyond the flush
	// depth are parked here at resolution and released drainDepth per
	// cycle, oldest first (drainQ[drainHead:] is the live window). The
	// boundary branch holds commit (uop.drainHold) until the drain ends.
	drainQ          []*uop
	drainHead       int
	drainDepth      int
	drainBoundary   *uop
	drainBoundaryID uint64

	// lowConfOut counts fetched-but-unresolved low-confidence branches for
	// the throttle policy's fetch gate.
	lowConfOut int
}

// drainLen returns the number of parked victims not yet released.
func (t *thread) drainLen() int { return len(t.drainQ) - t.drainHead }

func newThread(id int, c *Core, m emu.Frontend) *thread {
	t := &thread{
		id:        id,
		c:         c,
		m:         m,
		pred:      bpred.New(c.cfg.Predictor),
		btb:       bpred.NewBTB(c.cfg.BTBSets, c.cfg.BTBWays),
		fq:        frq.New[*missInfo](c.cfg.FRQSize),
		lastILine: -1,
	}
	t.wrongDir = func(pc int, in isa.Inst, actual bool) bool {
		// Wrong-path branches follow the shadow's own outcomes: the
		// fork inherits real register values, so near-reconvergence
		// wrong paths (the common case for slice bodies) terminate
		// where the real wrong path would. The predictor still sees
		// the fetched direction in its speculative history but is
		// never trained on wrong-path branches (see DESIGN.md).
		t.pred.OnFetch(actual)
		return actual
	}
	return t
}

// finishedFetching reports whether the thread will produce no more
// instructions.
func (t *thread) finishedFetching() bool { return t.haltSeen || t.done }

// active reports whether the thread still has work in flight or to fetch.
func (t *thread) active() bool { return !t.done }

// nextFetchPC peeks the PC the current source would fetch next, or -1 if
// the source cannot produce an instruction right now.
func (t *thread) nextFetchPC() int {
	if t.resolving != nil && t.resolving.stall == nil {
		if t.resolving.fetched < len(t.resolving.seg) {
			return t.resolving.seg[t.resolving.fetched].PC
		}
		return -1
	}
	if t.mode == fmWrong {
		if t.wpStuck || t.shadow == nil || t.shadow.Dead() {
			return -1
		}
		return t.shadow.NextPC()
	}
	if t.fenceStall || t.barrierWait || t.haltSeen || t.m.Halted() {
		return -1
	}
	return t.m.NextPC()
}

// startNextResolve points resolve fetch at the program-order-oldest
// pending miss (preempting a younger one if an older branch just
// resolved). Completed and cancelled entries are squashed.
func (t *thread) startNextResolve() {
	t.fq.Squash(func(mi *missInfo) bool {
		return mi.cancelled || mi.fetched >= len(mi.seg)
	})
	t.resolving = nil
	for _, mi := range t.fq.All() {
		if t.resolving == nil || mi.branchSeq < t.resolving.branchSeq {
			t.resolving = mi
		}
	}
}

// oldestHoleSeq returns the branch sequence number of the oldest in-slice
// miss that is, or will become, a hole in the ROB: resolved misses whose
// correct paths have not fully dispatched, and detected misses whose
// branches have not executed yet. Only a resolve path at least as old as
// every such miss may consume the reserved resources — it is guaranteed to
// drain into commit, which is what makes reserving "a single resource of
// each" deadlock-free (§4.7). A younger path must leave the reserved
// entries alone, because an older hole may still claim them.
func (t *thread) oldestHoleSeq() uint64 {
	oldest := ^uint64(0)
	live := t.holes[:0]
	for _, mi := range t.holes {
		if mi.cancelled || mi.segDispatched {
			continue
		}
		live = append(live, mi)
		if mi.branchSeq < oldest {
			oldest = mi.branchSeq
		}
	}
	t.holes = live
	liveU := t.unresolved[:0]
	for _, mi := range t.unresolved {
		if mi.cancelled || mi.resolved {
			continue
		}
		liveU = append(liveU, mi)
		if mi.branchSeq < oldest {
			oldest = mi.branchSeq
		}
	}
	t.unresolved = liveU
	return oldest
}

// oldestHole is oldestHoleSeq, rescanned only after invalidateHoles.
func (t *thread) oldestHole() uint64 {
	if !t.holeSeqOK {
		t.holeSeq = t.oldestHoleSeq()
		t.holeSeqOK = true
	}
	return t.holeSeq
}

// invalidateHoles drops the cached oldest-hole sequence. The cache rule:
// every event that can change oldestHoleSeq's answer calls this — an
// in-slice miss detected (fetchNormal, or nested in fetchResolve), one
// resolved (resolveSelective), its path fully dispatched or truncated
// (segDone), or cancelled by a full-squash recovery (cancelMiss).
// Nothing else writes the fields the scan reads. With debug checks on,
// checkInvariants compares a valid cache against a fresh scan every
// cycle.
func (t *thread) invalidateHoles() { t.holeSeqOK = false }
