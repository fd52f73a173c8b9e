package core

import (
	"repro/internal/flight"
	"repro/internal/isa"
)

// dispatch renames and inserts fetched instructions into the window, up to
// DispatchWidth per cycle, round-robin across SMT threads.
//
// Each thread has two frontend streams: the regular stream (frontend) and
// the resolve-path stream (one FIFO per miss, listed in resolveMisses),
// which carries correct paths being
// spliced after selective flushes. The resolve stream has dispatch
// priority — it is the commit-critical path, and in the paper's hardware
// regular fetch is parked at the regular-fetch checkpoint while the
// resolved path flows through the pipeline. Within the resolve stream,
// the program-order-oldest hole's instructions are privileged: only they
// may consume the reserved RS/LQ/SQ/ROB entries (§4.7), which is what
// makes the reservation deadlock-free.
//
// The per-slot bookkeeping is computed once per pass and kept until it
// can change: each thread's oldest-hole sequence is cached across cycles
// (thread.oldestHole; see invalidateHoles for the rule), and its
// resolve-candidate set is collected on its first resolve attempt and
// again only after a resolve-path dispatch. Nothing else in a pass can
// change either: resources are only consumed, so a candidate that found
// them short stays short, and only a resolve-path dispatch can advance a
// miss's queue or retire a hole (which lowers the reservation a younger
// path or the regular stream must respect).
func (c *Core) dispatch() {
	slots := c.cfg.DispatchWidth
	for _, t := range c.threads {
		t.candsStale = true
	}
	for slots > 0 {
		progressed := false
		for i := 0; i < len(c.threads) && slots > 0; i++ {
			t := c.threads[(c.dispatchRR+i)%len(c.threads)]
			if c.dispatchOne(t) {
				slots--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	c.dispatchRR++
}

// dispatchOne dispatches one instruction of t, from the resolve stream
// when it can and otherwise from the regular stream.
func (c *Core) dispatchOne(t *thread) bool {
	if c.dispatchResolve(t) {
		return true
	}
	return c.dispatchRegular(t, t.oldestHole())
}

// dispatchResolve dispatches one resolve-path instruction. All resolve
// paths share the reserved resources (§4.7 reserves them "for resolving
// correct paths"); instructions of one miss dispatch in segment order,
// but distinct misses' segments may interleave, so multiple holes drain
// concurrently. The oldest hole additionally may take the very last
// entry, which is the §4.7 deadlock-freedom guarantee.
//
// Each miss keeps its own fetched-instruction FIFO (missInfo.feq with an
// index cursor — pops are O(1)); the candidates are the queue heads whose
// frontend delay expired. Dispatch goes oldest-miss-first: the oldest
// hole is the commit-critical path and gets the dispatch bandwidth;
// younger holes fill spare slots. A candidate that fails is dropped for
// the rest of the pass, unless a later resolve-path dispatch re-collects
// the set.
func (c *Core) dispatchResolve(t *thread) bool {
	if t.candsStale {
		c.collectResolveCands(t)
	}
	for len(t.cands) > 0 {
		mi := t.cands[0]
		t.cands = t.cands[1:]
		if c.tryDispatch(t, mi.feq[mi.feqHead], t.oldestHole()) {
			mi.feq[mi.feqHead] = nil
			mi.feqHead++
			t.candsStale = true
			return true
		}
	}
	return false
}

// collectResolveCands drops fully dispatched misses from t.resolveMisses
// and sets t.cands to the misses whose queue head may dispatch now, in
// program order of their branches.
func (c *Core) collectResolveCands(t *thread) {
	t.candsStale = false
	cands := t.candBuf[:0]
	live := t.resolveMisses[:0]
	for _, mi := range t.resolveMisses {
		if mi.feqHead >= len(mi.feq) {
			// Fully dispatched (for now): drop from the list; a later
			// resume of this miss takes a fresh queue from the pool.
			mi.inResolveList = false
			c.putFeq(mi)
			continue
		}
		live = append(live, mi)
		if mi.feq[mi.feqHead].readyFE <= c.now {
			// Insertion by branch sequence (unique per miss); the set
			// is at most the FRQ depth plus nested misses.
			cands = append(cands, mi)
			for j := len(cands) - 1; j > 0 && cands[j].branchSeq < cands[j-1].branchSeq; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
	}
	t.resolveMisses = live
	t.candBuf = cands
	t.cands = cands
}

// dispatchRegular dispatches the head of the regular frontend queue.
func (c *Core) dispatchRegular(t *thread, oldestHole uint64) bool {
	if len(t.frontend) == 0 {
		return false
	}
	u := t.frontend[0]
	if u.readyFE > c.now {
		return false
	}
	if !c.tryDispatch(t, u, oldestHole) {
		return false
	}
	t.frontend = t.frontend[1:]
	return true
}

// resourceNeeds returns which queues the uop occupies.
func resourceNeeds(op isa.Op) (lq, sq bool) {
	switch {
	case op.IsLoad():
		return true, false
	case op.IsStore():
		return false, true
	case op.IsAtomic():
		return true, true
	}
	return false, false
}

// privileged reports whether u may use the reserved resources: it is a
// resolve-path instruction of the program-order-oldest unfinished hole
// (no older hole exists, resolved or pending). Dispatch compares against
// the cached t.oldestHole() inline; this helper serves diagnostics.
func (c *Core) privileged(t *thread, u *uop) bool {
	if !u.resolvePath {
		return false
	}
	return u.resolveOf.branchSeq <= t.oldestHoleSeq()
}

// tryDispatch attempts to rename and insert u. It returns false when
// resources are unavailable (the caller retries later); marker
// instructions always succeed (they are discarded at dispatch, consuming
// only the slot).
func (c *Core) tryDispatch(t *thread, u *uop, oldestHole uint64) bool {
	op := u.d.Inst.Op

	// Slice markers take a dispatch slot and vanish (Fig. 6 overhead).
	if op.IsSlice() || op == isa.Nop {
		if u.d.Wrong {
			c.stats.DispWrong++
		} else {
			c.stats.DispOverhead++
		}
		if u.resolvePath {
			mi := u.resolveOf
			c.noteResolveDispatched(t, mi)
			if mi.segDispatched && mi.insertPos != nil {
				prev := mi.insertPos.Val
				prev.spliceHold = nil
				if prev.tombstone {
					t.list.Remove(&prev.node)
					c.freeUop(prev)
				}
			}
		}
		c.freeUop(u)
		c.activity = true
		return true
	}

	// Resource admission tiers (§4.7): regular fetch keeps Reserve
	// entries of each resource free for resolve paths; resolve paths
	// share those but keep one entry free for the oldest hole, whose
	// path drains straight into commit — "reserving a single resource
	// of each suffices to prevent deadlocks".
	// The reservation is active while in-slice instructions are in the
	// ROB or any hole (resolved or pending miss) exists: segments still
	// to be spliced will need the reserved entries even after a fence
	// let post-region code proceed.
	active := c.selEligible &&
		(c.inSliceCount > 0 || t.pendingMisses > 0 || oldestHole != ^uint64(0))
	reserve := 0
	if active && !u.resolvePath {
		reserve = c.cfg.Reserve
	} else if u.resolvePath && u.resolveOf.branchSeq > oldestHole {
		reserve = nonOldestReserve(c.cfg.Reserve)
	}
	needLQ, needSQ := resourceNeeds(op)
	if c.space.Free() <= reserve {
		return false
	}
	if c.rsUsed >= c.cfg.RS-reserve {
		return false
	}
	if needLQ && c.lqUsed >= c.cfg.LQ-reserve {
		return false
	}
	if needSQ && c.sqUsed >= c.cfg.SQ-reserve {
		return false
	}

	// Allocate.
	if !c.space.Alloc() {
		return false
	}
	c.rsUsed++
	if needLQ {
		c.lqUsed++
	}
	if needSQ {
		c.sqUsed++
	}

	// Rename: resolve-path instructions use the segment's private table
	// seeded from the branch checkpoint (CP1); everything else uses the
	// thread's live table.
	tbl := &t.rt
	if u.resolvePath {
		mi := u.resolveOf
		if mi.rtbl == nil {
			mi.rtbl = c.takeRtbl()
			mi.rtbl.Restore(mi.ck)
		}
		tbl = mi.rtbl
	}
	c.renameDeps(t, u, tbl)

	// Branches known to be mispredicted checkpoint the rename table for
	// recovery (CP1 / conventional restore point). Nested misses inside
	// a resolve path checkpoint the segment's private table.
	if u.mispred {
		switch {
		case u.miss != nil:
			u.miss.ck = tbl.Checkpoint()
			u.miss.ckValid = true
		case !u.resolvePath:
			u.ck = c.takeCk()
			*u.ck = t.rt.Checkpoint()
		}
	}

	// Insert into the logical-order linked ROB, advancing the splice
	// cursor (and its commit boundary) to the newly inserted entry; a
	// cursor that already retired into a tombstone is unlinked now.
	if u.resolvePath {
		mi := u.resolveOf
		if mi.insertPos == nil {
			mi.insertPos = &mi.branch.node
		}
		if c.rec != nil {
			c.recordMechanism(flight.EvSplice, t, u, int64(mi.branchSeq))
		}
		t.list.InsertAfter(mi.insertPos, &u.node)
		prev := mi.insertPos.Val
		prev.spliceHold = nil
		if prev.tombstone {
			t.list.Remove(&prev.node)
			c.freeUop(prev)
		}
		mi.insertPos = &u.node
		u.spliceHold = mi
		c.noteResolveDispatched(t, mi)
		if mi.segDispatched {
			u.spliceHold = nil
		}
	} else {
		t.list.PushBack(&u.node)
	}

	if u.wpOf != nil {
		u.wpOf.wp = append(u.wpOf.wp, u)
	}
	if u.d.InSlice && !u.d.Wrong {
		c.inSliceCount++
	}

	u.state = stWaiting
	if c.rec != nil && c.rec.TraceUops {
		u.dispCycle = c.now
	}
	u.dispSeq = c.dispSeqCtr
	c.dispSeqCtr++
	if c.forceCyc {
		c.rs = append(c.rs, u)
	} else {
		c.registerWakeups(u)
	}
	if c.traceOn {
		c.trace("DISPATCH    t%d %s", t.id, traceUop(u))
	}
	t.inflight++
	if op.IsStore() && !u.d.Wrong {
		t.stores = append(t.stores, u)
	}
	if u.d.Wrong {
		c.stats.DispWrong++
	} else {
		c.stats.DispCorrect++
	}
	c.activity = true
	return true
}

// nonOldestReserve is how many entries a non-oldest resolve path must
// leave free. The default (negative) tracks the configured Reserve: only
// the oldest hole's path consumes reserved entries, which measured best —
// younger holes' instructions otherwise crowd the commit-critical path
// (see DESIGN.md). SetNonOldestReserve lowers the floor for the ablation
// bench; at least 1 entry always stays free for the oldest hole (§4.7).
var nonOldestReserveN = -1

func nonOldestReserve(configured int) int {
	if nonOldestReserveN < 0 {
		return configured
	}
	return nonOldestReserveN
}

// SetNonOldestReserve tunes the non-oldest resolve-path floor (ablation);
// negative restores the default (track the configured Reserve).
func SetNonOldestReserve(n int) {
	if n == 0 {
		n = 1
	}
	nonOldestReserveN = n
}

// noteResolveDispatched advances the segment-dispatch counter of a miss.
func (c *Core) noteResolveDispatched(t *thread, mi *missInfo) {
	mi.dispatched++
	if mi.dispatched >= len(mi.seg) {
		c.segDone(t, mi)
	}
}

// segDone marks mi's resolved path as fully in the ROB — every segment
// instruction dispatched, or the segment was empty or truncated at a
// nested miss — which retires its hole and ends its use of the segment
// buffer and private rename table.
func (c *Core) segDone(t *thread, mi *missInfo) {
	mi.segDispatched = true
	t.invalidateHoles()
	c.releaseMiss(mi)
}

// renameDeps records the uop's operand producers from the rename table and
// registers the uop as producer of its destination.
func (c *Core) renameDeps(t *thread, u *uop, tbl *renameTable) {
	in := u.d.Inst
	add := func(r isa.Reg) {
		if r == isa.R0 {
			return
		}
		ref := tbl.Producer(r)
		if ref.u != nil && u.ndeps < len(u.deps) {
			u.deps[u.ndeps] = ref
			u.ndeps++
		}
	}
	add(in.Src1)
	if in.Op != isa.Li && in.Op != isa.Mov && in.Op != isa.FAbs &&
		in.Op != isa.CvtIF && in.Op != isa.CvtFI {
		add(in.Src2)
	}
	if in.Op.IsStore() || in.Op.IsAtomic() {
		add(in.Val)
	}

	// Load-store forwarding: depend on the youngest older in-flight
	// store that overlaps this load's address.
	if (in.Op.IsLoad() || in.Op.IsAtomic()) && !u.d.Wrong {
		if s := t.youngestOlderStore(u); s != nil {
			u.fwdStore = makeRef(s)
			if u.ndeps < len(u.deps) {
				u.deps[u.ndeps] = u.fwdStore
				u.ndeps++
			}
		}
	}

	// Reduction updates are not renamed (§4.5): they read and write
	// architectural registers at the head of the ROB.
	if in.Op.HasDst() && !u.reduce {
		tbl.SetProducer(in.Dst, makeRef(u))
	}
}

// youngestOlderStore finds the in-flight store this load would forward
// from, by program order (Seq) and address overlap.
func (t *thread) youngestOlderStore(u *uop) *uop {
	lo := u.d.Addr
	hi := lo + uint64(u.d.Inst.Op.MemSize())
	var best *uop
	for _, s := range t.stores {
		if s.state == stCommitted || s.state == stFlushed {
			continue
		}
		if s.d.Seq >= u.d.Seq {
			continue
		}
		sLo := s.d.Addr
		sHi := sLo + uint64(s.d.Inst.Op.MemSize())
		if sLo < hi && lo < sHi {
			if best == nil || s.d.Seq > best.d.Seq {
				best = s
			}
		}
	}
	return best
}
