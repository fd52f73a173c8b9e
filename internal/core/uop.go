package core

import (
	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/rename"
	"repro/internal/rob"
)

// uopState tracks a micro-op through the pipeline.
type uopState uint8

const (
	stFrontend uopState = iota // fetched, waiting to dispatch
	stWaiting                  // dispatched, in RS, waiting for operands
	stIssued                   // executing
	stDone                     // result available at doneAt
	stCommitted
	stFlushed
)

// uop is one in-flight micro-op. uops are pooled; id disambiguates
// recycled objects (see depRef). Recycling zeroes the whole struct, so
// the one-byte fields are grouped at the end, where they share a word
// instead of each padding one out.
type uop struct {
	id uint64
	d  emu.DynInst
	t  *thread

	node rob.Node[*uop]

	// Dependences: producers of the source registers plus, for loads,
	// the store being forwarded from.
	deps  [4]depRef
	ndeps int

	// Wakeup-driven scheduling state: dependents to notify when this uop
	// completes or is flushed, and this uop's own count of outstanding
	// operands (it enters the ready queue when it reaches zero). waiters
	// keeps its capacity across pool recycling.
	waiters   []waiter
	waitCount int
	// dispSeq is the core-wide dispatch order, the tie-break that makes
	// age-ordered selection deterministic (ages collide across SMT
	// threads and within a miss's wrong path).
	dispSeq uint64

	readyFE    int64 // cycle the uop may leave the frontend
	doneAt     int64
	issueCycle int64
	// fetchCycle/dispCycle are recorded only while a flight recorder
	// with TraceUops is attached (zero otherwise).
	fetchCycle int64
	dispCycle  int64
	// age is the logical-age key for oldest-first issue selection:
	// the program-order sequence for correct-path uops, and the
	// mispredicted branch's sequence for its wrong-path uops.
	age uint64

	// Branch bookkeeping.
	pred bpred.Pred
	miss *missInfo

	// fwdStore is the store this load forwards from, when any.
	fwdStore depRef

	// wpOf links a wrong-path uop to the in-slice miss it belongs to
	// (nil for conventional wrong paths).
	wpOf *missInfo
	// resolveOf links a resolve-path uop to the miss whose correct path
	// it restores.
	resolveOf *missInfo
	// spliceHold marks this uop as the current splice cursor of a miss
	// whose resolved path has not fully entered the ROB: it must not
	// commit (and be unlinked) while later resolve-path instructions
	// still need to be inserted after it.
	spliceHold *missInfo
	// ck is the rename checkpoint taken at dispatch of a branch known
	// to be mispredicted (conventional recovery restores it).
	ck *renameSnapshot

	state uopState

	// Branch bookkeeping flags.
	predTaken bool
	mispred   bool

	// resolvePath marks correct-path instructions fetched to resolve an
	// in-slice miss; they may use reserved resources (§4.7).
	resolvePath bool
	reduce      bool
	// barrierOK is set when the simulator releases this barrier uop.
	barrierOK bool
	// tombstone marks a splice cursor that has retired (resources
	// freed, stats counted) but stays linked as the order boundary
	// until the next resolve-path instruction is spliced after it.
	tombstone bool
	// lowConf marks a fetched conditional branch the throttle policy
	// counted as low-confidence; cleared (and the thread's lowConfOut
	// decremented) when the branch resolves or the uop is freed.
	lowConf bool
	// drainHold marks the boundary branch of a partial flush: it must not
	// commit while parked victims are still draining behind it.
	drainHold bool
}

// depRef is a validity-checked reference to a producing uop: if the uop
// was recycled (id mismatch) or has produced its result, the dependence is
// satisfied.
type depRef struct {
	u  *uop
	id uint64
}

func (r depRef) ready(now int64) bool {
	if r.u == nil || r.u.id != r.id {
		return true
	}
	switch r.u.state {
	case stDone, stCommitted:
		return r.u.doneAt <= now
	case stFlushed:
		return true
	}
	return false
}

// waiter is one entry on a producer's wakeup list: the dependent uop,
// validity-checked by id like depRef (the dependent may be flushed and
// recycled while the producer is still executing).
type waiter struct {
	u  *uop
	id uint64
}

// readyRef is one entry of the ready queue or specials list, id-checked
// the same way.
type readyRef struct {
	u  *uop
	id uint64
}

// renameRef is the rename-table entry type.
type renameRef = depRef

// renameSnapshot aliases the rename checkpoint type.
type renameSnapshot = rename.Snapshot[renameRef]

// renameTable aliases the rename table type.
type renameTable = rename.Table[renameRef]

func makeRef(u *uop) renameRef {
	if u == nil {
		return renameRef{}
	}
	return renameRef{u: u, id: u.id}
}

// missInfo describes one pending in-slice branch miss: everything a fetch
// redirect queue entry carries (§4.6) plus the correct-path segment
// buffered by the trace frontend.
type missInfo struct {
	branch *uop
	// branchSeq snapshots the branch's program-order position: the
	// branch uop itself is pooled and may be recycled once it commits,
	// so ordering decisions must never read through the pointer.
	branchSeq uint64
	// seg is the correct-path remainder of the slice (including the
	// closing slice_end marker), executed functionally at detection
	// time and delivered to the pipeline at resolution.
	seg []emu.DynInst
	// wp records the wrong-path uops dispatched for this miss, to be
	// selectively flushed at resolution.
	wp []*uop
	// ck is the rename checkpoint at the branch (CP1 in Fig. 2);
	// rtbl is the segment's private rename table seeded from ck, so the
	// regular stream's table never sees resolve-path renamings (the
	// regular-fetch checkpoint CP2 "does not contain the renamings made
	// after dispatching the resolved path", §4.2). rtbl is taken from the
	// core's pool at the path's first dispatch and returned by
	// releaseMiss.
	ck      renameSnapshot
	ckValid bool
	rtbl    *rename.Table[renameRef]
	// insertPos is where the next resolve-path uop is spliced into the
	// linked ROB.
	insertPos *rob.Node[*uop]
	// dispatched counts resolve-path uops dispatched so far;
	// segDispatched is set when the whole segment entered the ROB.
	dispatched    int
	segDispatched bool
	// feq queues this miss's fetched-but-undispatched resolve-path uops
	// in segment order; feqHead is the consumed prefix (index cursor, so
	// dispatch pops cost O(1)); it comes from the core's pool while the
	// miss is on the owning thread's resolveMisses list, which
	// inResolveList marks.
	feq           []*uop
	feqHead       int
	inResolveList bool
	// fetched counts segment instructions delivered to the frontend
	// (resolve fetch can be preempted by an older miss and resumed).
	fetched int
	// stall is a mispredicted branch inside this resolve path; fetching
	// the rest of the segment waits for it to resolve.
	stall *uop
	// resolved is set when the branch executed and the selective flush
	// was performed.
	resolved bool
	// cancelled marks a miss squashed by an older conventional flush.
	cancelled bool
	// segOwner refcounts the pooled backing buffer of seg. Nested misses
	// alias a suffix of their parent's array, so the buffer returns to
	// the core's pool only when every miss sharing it has released;
	// segReleased makes the release idempotent across the resolution and
	// cancellation paths.
	segOwner    *segBuf
	segReleased bool
	// flushLen is the number of wrong-path uops flushed at resolution
	// (for block-gap accounting).
	flushLen int
}

// event is a scheduled completion.
type event struct {
	at int64
	u  *uop
	id uint64
}

// eventHeap is a concrete binary min-heap on event.at. The sift logic
// mirrors container/heap exactly (same child-selection tie-breaks), so
// the pop order of equal-time events — which the issue stage's selection
// can observe — is identical to the previous container/heap version,
// without the interface boxing that allocated on every push and pop.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].at < s[i].at) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift down over s[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].at < s[j1].at {
			j = j2
		}
		if !(s[j].at < s[i].at) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e
}

func (c *Core) schedule(u *uop, at int64) {
	c.events.push(event{at: at, u: u, id: u.id})
}

// uop pool. Fetch takes a reset uop with takeUop, has the frontend step
// straight into its record u.d, and then admits it with newUop; a step
// that produced nothing (a dead wrong path) hands the uop back with
// untakeUop, uncounted and without consuming an id.

func (c *Core) takeUop() *uop {
	n := len(c.pool)
	if n == 0 {
		return &uop{}
	}
	u := c.pool[n-1]
	c.pool = c.pool[:n-1]
	w := u.waiters
	*u = uop{}
	u.waiters = w[:0]
	return u
}

func (c *Core) untakeUop(u *uop) { c.pool = append(c.pool, u) }

// newUop admits a taken uop whose record has been filled for thread t.
func (c *Core) newUop(u *uop, t *thread) {
	c.nextID++
	u.id = c.nextID
	u.t = t
	u.node.Val = u
	c.stats.UopsFetched++
	if c.rec != nil && c.rec.TraceUops {
		u.fetchCycle = c.now
	}
}

func (c *Core) freeUop(u *uop) {
	if u.node.InList() {
		panic("core: freeing linked uop")
	}
	switch u.state {
	case stFrontend:
		c.stats.UopsFEDiscarded++
	case stFlushed:
		c.stats.UopsSquashed++
	}
	if u.lowConf {
		u.lowConf = false
		u.t.lowConfOut--
	}
	if u.ck != nil {
		c.putCk(u)
	}
	u.miss = nil
	u.t = nil
	u.waiters = u.waiters[:0]
	c.pool = append(c.pool, u)
}

// Checkpoint pool for uop.ck: a conventional-recovery checkpoint is
// needed from its branch's dispatch until the branch recovers or is
// freed, whichever comes first.

func (c *Core) takeCk() *renameSnapshot {
	if n := len(c.ckPool); n > 0 {
		ck := c.ckPool[n-1]
		c.ckPool = c.ckPool[:n-1]
		return ck
	}
	return new(renameSnapshot)
}

// putCk returns u's checkpoint to the pool.
func (c *Core) putCk(u *uop) {
	c.ckPool = append(c.ckPool, u.ck)
	u.ck = nil
}

// Segment-buffer pool: the append target handed to RunToSliceEnd at miss
// detection. A buffer is recycled once every miss aliasing it — the root
// and any nested children, which slice the parent's array — has stopped
// consuming elements: its segment fully dispatched, or the miss was
// cancelled by a conventional flush. After release only len(mi.seg)
// reads remain, and a slice header's length stays valid when the backing
// array is handed to a new miss.
//
// Released buffers stay on the core's free list for the rest of the run,
// and a new miss takes the largest, so a long run-ahead more often finds
// a buffer that already fits. Recycling is invisible in the output:
// RunToSliceEnd overwrites every field of every element it appends.

type segBuf struct {
	buf  []emu.DynInst
	refs int
}

func (c *Core) getSegBuf() *segBuf {
	n := len(c.segPool)
	if n == 0 {
		return &segBuf{refs: 1}
	}
	best := 0
	for i, sb := range c.segPool {
		if cap(sb.buf) > cap(c.segPool[best].buf) {
			best = i
		}
	}
	sb := c.segPool[best]
	c.segPool[best] = c.segPool[n-1]
	c.segPool[n-1] = nil
	c.segPool = c.segPool[:n-1]
	sb.refs = 1
	return sb
}

// shareSeg makes child a co-owner of parent's segment buffer.
func shareSeg(parent, child *missInfo) {
	if parent.segOwner != nil {
		child.segOwner = parent.segOwner
		child.segOwner.refs++
	}
}

// releaseMiss ends mi's use of its per-miss storage: its private rename
// table returns to the core's pool, and its reference to the segment
// buffer is dropped, returning the buffer to the pool when mi was the
// last holder. It runs when the miss stops consuming its segment (segDone
// or cancelMiss), possibly both, and is idempotent.
func (c *Core) releaseMiss(mi *missInfo) {
	if mi.rtbl != nil {
		c.rtblPool = append(c.rtblPool, mi.rtbl)
		mi.rtbl = nil
	}
	if mi.segReleased || mi.segOwner == nil {
		return
	}
	mi.segReleased = true
	sb := mi.segOwner
	if sb.refs--; sb.refs == 0 {
		c.segPool = append(c.segPool, sb)
	}
}

// takeRtbl returns a private rename table for a resolve path; the caller
// seeds every entry with Restore.
func (c *Core) takeRtbl() *renameTable {
	if n := len(c.rtblPool); n > 0 {
		tbl := c.rtblPool[n-1]
		c.rtblPool = c.rtblPool[:n-1]
		return tbl
	}
	return new(renameTable)
}

// Resolve-channel queues (missInfo.feq) are pooled per core: a miss drops
// its queue when it leaves the thread's resolveMisses list and takes one
// again if its path resumes.

func (c *Core) putFeq(mi *missInfo) {
	if cap(mi.feq) > 0 {
		c.feqPool = append(c.feqPool, mi.feq[:0])
	}
	mi.feq = nil
	mi.feqHead = 0
}

func (c *Core) takeFeq() []*uop {
	if n := len(c.feqPool); n > 0 {
		q := c.feqPool[n-1]
		c.feqPool = c.feqPool[:n-1]
		return q
	}
	return nil
}
