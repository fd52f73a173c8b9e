package core

import (
	"fmt"
	"strings"
)

func resolvingIdx(mi *missInfo) int {
	if mi == nil {
		return -1
	}
	return mi.fetched
}

// checkInvariants panics when per-miss segment accounting breaks —
// dispatched + in-frontend + unfetched must equal the segment length for
// every live hole — or when a thread's cached oldest-hole sequence
// disagrees with a fresh scan, i.e. some change to a hole missed
// invalidateHoles. Enabled in tests via debugChecks.
func (c *Core) checkInvariants() {
	for _, t := range c.threads {
		if t.holeSeqOK {
			if fresh := t.oldestHoleSeq(); fresh != t.holeSeq {
				panic(fmt.Sprintf("core %d @%d t%d: cached oldest hole #%d, fresh scan #%d\n%s",
					c.id, c.now, t.id, t.holeSeq, fresh, c.DumpState()))
			}
		}
		for _, mi := range t.holes {
			if mi.cancelled || mi.segDispatched {
				continue
			}
			inFE := len(mi.feq) - mi.feqHead
			got := mi.dispatched + inFE + (len(mi.seg) - mi.fetched)
			if got != len(mi.seg) {
				panic(fmt.Sprintf("core %d @%d: miss br=#%d accounting broken: disp=%d fe=%d unfetched=%d seg=%d\n%s",
					c.id, c.now, mi.branchSeq, mi.dispatched, inFE,
					len(mi.seg)-mi.fetched, len(mi.seg), c.DumpState()))
			}
		}
	}
}

// debugChecks enables expensive per-cycle invariant checking.
var debugChecks = false

// EnableDebugChecks turns on per-cycle invariant checking (tests).
func EnableDebugChecks(on bool) { debugChecks = on }

// DumpState renders the core's stall-relevant state for debugging
// deadlocks (used by tests and the sim driver's watchdog).
func (c *Core) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core %d @%d: rob used=%d gaps=%d free=%d rs=%d lq=%d sq=%d inSlice=%d events=%d\n",
		c.id, c.now, c.space.Used(), c.space.Gaps(), c.space.Free(),
		c.rsUsed, c.lqUsed, c.sqUsed, c.inSliceCount, len(c.events))
	for _, t := range c.threads {
		fmt.Fprintf(&b, " t%d: mode=%d done=%v haltSeen=%v fence=%v barrier=%v wpStuck=%v pend=%d frq=%d fe=%d inflight=%d stall@%d redirect@%d resolving=%v resolveIdx=%d resolveStall=%v\n",
			t.id, t.mode, t.done, t.haltSeen, t.fenceStall, t.barrierWait, t.wpStuck,
			t.pendingMisses, t.fq.Len(), len(t.frontend), t.inflight,
			t.fetchStallUntil, t.redirectUntil, t.resolving != nil, resolvingIdx(t.resolving), t.resolving != nil && t.resolving.stall != nil)
		if h := t.list.Head(); h != nil {
			u := h.Val
			fmt.Fprintf(&b, "   head: #%d %v state=%d doneAt=%d mispred=%v wrong=%v resolve=%v splice=%v",
				u.d.Seq, u.d.Inst, u.state, u.doneAt, u.mispred, u.d.Wrong, u.resolvePath, u.spliceHold != nil)
			if u.spliceHold != nil {
				mi := u.spliceHold
				fmt.Fprintf(&b, " hold{disp=%d/%d cancelled=%v}", mi.dispatched, len(mi.seg), mi.cancelled)
			}
			if u.miss != nil {
				fmt.Fprintf(&b, " miss{resolved=%v segDisp=%v disp=%d/%d cancelled=%v}",
					u.miss.resolved, u.miss.segDispatched, u.miss.dispatched, len(u.miss.seg), u.miss.cancelled)
			}
			b.WriteString("\n")
			if u.state == stWaiting {
				for i := 0; i < u.ndeps; i++ {
					r := u.deps[i]
					if r.u != nil && r.u.id == r.id {
						fmt.Fprintf(&b, "   dep[%d]: #%d %v state=%d doneAt=%d\n",
							i, r.u.d.Seq, r.u.d.Inst, r.u.state, r.u.doneAt)
					}
				}
			}
		}
		if len(t.frontend) > 0 {
			u := t.frontend[0]
			fmt.Fprintf(&b, "   feHead: #%d %v wrong=%v resolve=%v readyFE=%d\n",
				u.d.Seq, u.d.Inst, u.d.Wrong, u.resolvePath, u.readyFE)
			for _, mi := range t.resolveMisses {
				n := len(mi.feq) - mi.feqHead
				if n == 0 {
					continue
				}
				w := mi.feq[mi.feqHead]
				fmt.Fprintf(&b, "   rfe: missBr=#%d queued=%d head=#%d %v readyFE=%d priv=%v\n",
					mi.branchSeq, n, w.d.Seq, w.d.Inst, w.readyFE,
					c.privileged(t, w))
			}
			fmt.Fprintf(&b, "   oldestHole=%d holes=%d\n", t.oldestHoleSeq(), len(t.holes))
			for _, mi := range t.holes {
				fmt.Fprintf(&b, "   hole: br=#%d fetched=%d/%d disp=%d segDisp=%v stall=%v cancelled=%v\n",
					mi.branchSeq, mi.fetched, len(mi.seg), mi.dispatched,
					mi.segDispatched, mi.stall != nil, mi.cancelled)
			}
			for _, mi := range t.fq.All() {
				fmt.Fprintf(&b, "   fq: br=#%d fetched=%d/%d disp=%d stall=%v cancelled=%v\n",
					mi.branch.d.Seq, mi.fetched, len(mi.seg), mi.dispatched,
					mi.stall != nil, mi.cancelled)
			}
		}
	}
	return b.String()
}
