package core

import "repro/internal/flight"

// resolveBranch handles execution-time resolution of a correct-path
// conditional branch: predictor training, and — for mispredictions —
// either the selective flush of §4.2 or the configured recovery
// policy's full-squash repair.
func (c *Core) resolveBranch(u *uop) {
	t := u.t
	if c.polFetch != nil {
		c.polFetch.OnBranchResolved(c, t, u)
	}

	if !u.mispred {
		t.pred.Resolve(u.pred, uint64(u.d.PC), u.d.Taken, true)
		return
	}

	switch {
	case u.miss != nil && !u.miss.cancelled:
		// In-slice miss — including nested misses detected inside a
		// resolve path, which recurse through the same mechanism.
		c.resolveSelective(t, u)
	case u.resolvePath:
		// Nested miss handled by the stall fallback (FRQ was full at
		// detection): the rest of the segment is the correct path;
		// fetch resumes from it after a redirect bubble.
		t.pred.Resolve(u.pred, uint64(u.d.PC), u.d.Taken, false)
		if u.resolveOf != nil && u.resolveOf.stall == u {
			u.resolveOf.stall = nil
		}
		t.fetchStallUntil = maxi64(t.fetchStallUntil, c.now+1)
	default:
		c.policy.Recover(c, t, u)
	}
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// resolveSelective performs the §4.2 recovery: flush only the wrong-path
// instructions of the slice, push the miss onto the FRQ, and let fetch
// splice the buffered correct path into the linked ROB.
func (c *Core) resolveSelective(t *thread, u *uop) {
	mi := u.miss

	// Detection-time gating (fetchNormal) bounds concurrent selective
	// recoveries to the FRQ capacity, so the push cannot fail.
	if !t.fq.Push(mi) {
		panic("core: FRQ overflow despite detection-time gating")
	}
	if t.fq.Peak() > c.stats.FRQPeak {
		c.stats.FRQPeak = t.fq.Peak()
	}

	t.pred.Resolve(u.pred, uint64(u.d.PC), u.d.Taken, false)
	c.stats.SliceRecoveries++
	if c.rec != nil {
		c.recordMechanism(flight.EvRecoverSel, t, u, int64(len(mi.seg)))
	}
	if c.traceOn {
		c.trace("RECOVER-SEL t%d %s seg=%d", t.id, traceUop(u), len(mi.seg))
	}
	mi.resolved = true
	t.invalidateHoles()
	if len(mi.seg) == 0 {
		c.segDone(t, mi)
	} else {
		// The branch entry is the initial splice cursor: the first
		// resolved-path instruction is inserted right after it.
		mi.insertPos = &u.node
		u.spliceHold = mi
	}

	// Selectively flush this miss's wrong-path instructions: dispatched
	// ones unlink from the ROB, frontend ones drop.
	dispFlushed := 0
	for i, w := range mi.wp {
		if w.state == stFlushed || w.state == stCommitted {
			continue
		}
		if faultMode == FaultSkipUnlink && i == 0 {
			continue // injected bug: leave one wrong-path uop linked
		}
		if c.rec != nil {
			c.recordMechanism(flight.EvUnlink, t, w, int64(mi.branchSeq))
		}
		c.flushUop(t, w)
		dispFlushed++
	}
	mi.wp = mi.wp[:0]
	feFlushed := 0
	fe := t.frontend[:0]
	for _, w := range t.frontend {
		if w.wpOf == mi {
			c.freeUop(w)
			feFlushed++
			continue
		}
		fe = append(fe, w)
	}
	t.frontend = fe
	mi.flushLen = dispFlushed
	c.stats.FlushedSelective += uint64(dispFlushed + feFlushed)

	// Wrong-path fetch for this miss still in progress: it dies here
	// (the shadow's remaining instructions were never fetched).
	if t.shadowMiss == mi {
		t.shadow = nil
		t.shadowMiss = nil
		t.mode = fmNormal
		t.wpStuck = false
	}

	// Block-partitioned ROB: stranded entries from the flush and the
	// upcoming splice (§4.3, Fig. 3), reclaimed when the region retires.
	if c.space.BlockSize() > 1 {
		segReal := 0
		for _, d := range mi.seg {
			if !d.Inst.Op.IsSlice() {
				segReal++
			}
		}
		release := u.d.Seq
		if n := len(mi.seg); n > 0 {
			release = mi.seg[n-1].Seq
		}
		g := c.space.FlushGaps(dispFlushed, segReal, release, c.cfg.Reserve+1)
		c.stats.GapsCreated += uint64(g)
	}

	if faultMode != FaultLeakPending {
		t.pendingMisses--
	}
	if t.pendingMisses == 0 {
		t.fenceStall = false
	}

	t.holes = append(t.holes, mi)

	// Fetch turns to the oldest pending miss (this one, unless an even
	// older hole is still resolving) after a one-cycle redirect bubble.
	t.startNextResolve()
	t.fetchStallUntil = maxi64(t.fetchStallUntil, c.now+1)
}

// resolveFlush trains the predictor on mispredicted branch u and repairs
// the window with partialFlush — the full-squash recovery behind every
// policy, including selective flush's out-of-slice misses. depth 0 is
// unbounded (the conventional flush).
func (c *Core) resolveFlush(t *thread, u *uop, depth int) {
	t.pred.Resolve(u.pred, uint64(u.d.PC), u.d.Taken, true)
	c.partialFlush(t, u, depth)
}

// partialFlush is the one victim walk of every full-squash recovery: it
// removes everything logically younger than branch u, cancels pending
// misses belonging to the flushed region, restores the rename
// checkpoint, and resets the fetch state machine to the correct path
// (the trace cursor, which stopped right after the branch).
//
// depth stages the victim release: the depth victims nearest the branch
// leave the window at resolution, the rest at depth per cycle
// (drainStep), modeling a squash walker that reclaims a bounded number
// of entries per cycle. The branch then stays at the commit head as the
// order boundary (drainHold) until the drain completes; frontend, miss,
// rename, and fetch repair are never staged. Depth 0 is unbounded, and a
// walk that finds no more victims than its depth parks nothing: both
// are the conventional flush.
func (c *Core) partialFlush(t *thread, u *uop, depth int) {
	// A new recovery supersedes an in-progress drain: its parked victims
	// are all logically younger than the (older) new branch's window
	// contents-to-be, so finish releasing them at once rather than hold
	// the new correct path behind stale wrong-path work.
	if t.drainLen() > 0 {
		c.finishDrain(t)
	}
	c.stats.ConvRecoveries++

	// 1. Unlink dispatched younger instructions (linked-list order is
	// logical order, so resolve-path instructions of older misses —
	// spliced before u — survive) and release the first depth of them.
	victims := t.list.RemoveRangeAfter(&u.node, c.victimBuf[:0])
	c.victimBuf = victims
	staged := depth > 0 && len(victims) > depth
	if !staged {
		depth = len(victims)
	}
	if c.traceOn {
		if staged {
			c.trace("RECOVER-PART t%d %s depth=%d", t.id, traceUop(u), depth)
		} else {
			c.trace("RECOVER-ALL t%d %s", t.id, traceUop(u))
		}
	}
	if c.rec != nil {
		c.recordMechanism(flight.EvRecoverFull, t, u, int64(len(victims)))
	}
	for i, n := range victims[:depth] {
		if faultMode != FaultNone && i == 0 && c.faultFullFlushVictim(t, u, n) {
			continue
		}
		c.releaseFlushed(t, n.Val)
	}
	c.stats.FlushedFull += uint64(len(victims))

	// 2. Flush the frontend: wrong-path uops, regular uops younger than
	// the branch, and resolve-path uops of cancelled misses. Resolve-
	// path uops of older misses survive.
	c.flushFrontendYounger(t, u.d.Seq)

	// 3. Cancel pending misses whose branch was flushed, then squash
	// them from the FRQ. (The cancel flag is authoritative: the branch
	// uop pointer must not be consulted after it can be recycled.) Miss
	// cancellation is not staged: a parked victim's FRQ entry must
	// squash now, before startNextResolve picks a resolve target. Only
	// the released victims are freed; parked ones stay live (they may
	// still issue and complete while draining) and are freed as the
	// drain releases them.
	for i, n := range victims {
		if faultMode == FaultSkipUnlink && i == 0 {
			continue // the re-linked victim stays live (injected bug)
		}
		c.cancelVictimMiss(t, n.Val)
		if i < depth {
			c.freeUop(n.Val)
		}
	}
	t.fq.Squash(func(mi *missInfo) bool { return mi.cancelled })
	if t.pendingMisses == 0 {
		t.fenceStall = false
	}
	t.startNextResolve()

	// 4. Rename table back to the branch checkpoint. References to
	// flushed or recycled producers resolve as ready automatically.
	if u.ck != nil {
		t.rt.Restore(*u.ck)
		c.putCk(u)
	} else if u.miss != nil && u.miss.ckValid {
		t.rt.Restore(u.miss.ck)
	}

	// 5. Reset fetch to the trace.
	c.resetFetchAfterFlush(t)

	if !staged {
		return
	}
	// Park the remainder oldest-first and hold the branch at commit as
	// the order boundary until the walker catches up.
	for _, n := range victims[depth:] {
		t.drainQ = append(t.drainQ, n.Val)
	}
	u.drainHold = true
	t.drainBoundary = u
	t.drainBoundaryID = u.id
	t.drainDepth = depth
	c.draining++
}

// flushFrontendYounger drops every frontend uop logically younger than
// branchSeq (wrong-path uops, younger regular uops, resolve-path uops of
// cancelled misses) and prunes the resolve channels the same way —
// step 2 of every full-squash recovery.
func (c *Core) flushFrontendYounger(t *thread, branchSeq uint64) {
	fe := t.frontend[:0]
	for _, w := range t.frontend {
		drop := false
		switch {
		case w.d.Wrong:
			drop = true
		case w.resolvePath:
			drop = w.resolveOf.branchSeq > branchSeq || w.resolveOf.cancelled
		default:
			drop = w.d.Seq > branchSeq
		}
		if drop {
			if w.miss != nil && !w.miss.resolved && !w.miss.cancelled {
				// A younger in-slice miss detected in the frontend:
				// cancel it with its branch.
				c.cancelMiss(t, w.miss)
			}
			c.freeUop(w)
			continue
		}
		fe = append(fe, w)
	}
	t.frontend = fe
	rms := t.resolveMisses[:0]
	for _, mi := range t.resolveMisses {
		if mi.branchSeq > branchSeq || mi.cancelled {
			for _, w := range mi.feq[mi.feqHead:] {
				if w.miss != nil && !w.miss.resolved && !w.miss.cancelled {
					c.cancelMiss(t, w.miss)
				}
				c.freeUop(w)
			}
			c.putFeq(mi)
			mi.inResolveList = false
			continue
		}
		rms = append(rms, mi)
	}
	t.resolveMisses = rms
}

// cancelVictimMiss cancels a flushed victim's pending in-slice miss, if
// any — the per-victim half of step 3 of a full-squash recovery.
func (c *Core) cancelVictimMiss(t *thread, v *uop) {
	if v.miss != nil && !v.miss.cancelled {
		c.cancelMiss(t, v.miss)
	}
}

// cancelMiss squashes in-slice miss mi together with its branch.
func (c *Core) cancelMiss(t *thread, mi *missInfo) {
	if !mi.resolved {
		t.pendingMisses--
	}
	mi.cancelled = true
	t.invalidateHoles()
	c.releaseMiss(mi)
}

// resetFetchAfterFlush points fetch back at the trace — step 5 of every
// full-squash recovery. The machine's cursor stopped at the branch's
// correct-path successor when the miss was detected (non-selective
// misses always divert fetch to the shadow), so regular fetch resumes
// exactly on the correct path.
func (c *Core) resetFetchAfterFlush(t *thread) {
	t.shadow = nil
	t.shadowMiss = nil
	t.convMiss = nil
	t.wpStuck = false
	t.mode = fmNormal
	if c.space.BlockSize() > 1 {
		c.space.ReleaseAllGaps()
	}
	t.redirectUntil = c.now + 1 + int64(c.cfg.FrontendDepth)
	t.fetchStallUntil = maxi64(t.fetchStallUntil, c.now+1)
	t.lastILine = -1
}

// drainStep advances every in-progress staged flush by one cycle,
// releasing up to the flush's depth of parked victims per thread; when a
// queue empties, its boundary branch is released to commit. Runs right
// after complete (like flushes themselves), so freed resources are
// visible to dispatch the same cycle.
func (c *Core) drainStep() {
	for _, t := range c.threads {
		n := t.drainLen()
		if n == 0 {
			continue
		}
		k := t.drainDepth
		if k > n {
			k = n
		}
		for i := 0; i < k; i++ {
			w := t.drainQ[t.drainHead+i]
			t.drainQ[t.drainHead+i] = nil
			c.releaseFlushed(t, w)
			c.freeUop(w)
		}
		t.drainHead += k
		c.stats.DrainCycles++
		c.activity = true
		if t.drainLen() == 0 {
			c.endDrain(t)
		}
	}
}

// finishDrain releases a thread's remaining parked victims at once (a
// new recovery supersedes the drain in progress).
func (c *Core) finishDrain(t *thread) {
	for _, w := range t.drainQ[t.drainHead:] {
		c.releaseFlushed(t, w)
		c.freeUop(w)
	}
	c.endDrain(t)
}

// endDrain clears a completed drain: the boundary branch may commit.
func (c *Core) endDrain(t *thread) {
	if b := t.drainBoundary; b != nil && b.id == t.drainBoundaryID {
		b.drainHold = false
	}
	t.drainBoundary = nil
	t.drainQ = t.drainQ[:0]
	t.drainHead = 0
	c.draining--
}

// flushUop removes one dispatched uop from the window (selective flush).
func (c *Core) flushUop(t *thread, w *uop) {
	if w.node.InList() {
		t.list.Remove(&w.node)
	}
	c.releaseFlushed(t, w)
	c.freeUop(w)
}

// releaseFlushed returns a flushed uop's resources.
func (c *Core) releaseFlushed(t *thread, w *uop) {
	if w.tombstone {
		// Tombstones are committed cursors at or before the commit
		// frontier; no flush can reach them.
		panic("core: flushing a tombstone cursor")
	}
	if w.state == stWaiting {
		c.rsUsed--
	}
	w.state = stFlushed
	// A flushed producer satisfies its dependents' operand checks
	// (depRef.ready treats stFlushed as ready): wake them now.
	c.wakeWaiters(w)
	if c.rec != nil {
		c.recordUop(w, true)
	}
	c.space.Release()
	needLQ, needSQ := resourceNeeds(w.d.Inst.Op)
	if needLQ {
		c.lqUsed--
	}
	if needSQ {
		c.sqUsed--
	}
	if w.d.InSlice && !w.d.Wrong {
		c.inSliceCount--
	}
	t.inflight--
	if w.d.Inst.Op.IsStore() && !w.d.Wrong {
		t.removeStore(w)
	}
	if w.barrierOK || t.barrierUop == w {
		t.barrierUop = nil
		t.barrierWait = false
	}
}
