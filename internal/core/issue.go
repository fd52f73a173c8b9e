package core

import (
	"slices"

	"repro/internal/isa"
)

// issue selects ready instructions from the reservation stations,
// oldest-first by logical age (the standard age-based select), bounded by
// IssueWidth and per-class port capacity, and computes their completion
// times. Age priority matters for the selective-flush mechanism: the
// resolved correct path of an old hole is the commit-critical work, and
// must win ports and MSHRs over logically younger slices dispatched
// earlier.
//
// Selection is wakeup-driven: a dispatched uop is parked on its producers'
// waiter lists and enters the ready queue only when its last outstanding
// operand completes (or is flushed), so the per-cycle cost scales with
// wakeup events rather than RS occupancy. Uops whose readiness depends on
// more than operand availability — commit-time reductions waiting for the
// ROB head, barriers waiting for the simulator release — sit on a small
// polled "specials" list instead.
//
// To keep results byte-identical to the full-RS scan (whose age sort is
// unstable, so its tie order among equal-age uops — SMT threads share the
// age space, and a miss's wrong-path uops all carry the branch's age — is
// an artifact of the candidates' RS order), sortForIssue orders the
// candidates as the same age sort orders them in dispatch order, which is
// exactly the order the RS scan produces. Config.ForceCycleAccurate
// selects the legacy scan (issueScan) for equivalence testing.
func (c *Core) issue() {
	if c.forceCyc {
		c.issueScan()
		return
	}
	// The ready queue is kept in dispatch order: the survivors of the
	// previous cycle already are, so sorting in the few uops woken since
	// costs an insertion sort over a nearly sorted queue, and unless a
	// special joins it the candidate set reaches sortForIssue needing no
	// dispSeq presort.
	ready := c.ready_[:0]
	rq := c.readyQ[:0]
	for _, e := range c.readyQ {
		if e.u.id != e.id || e.u.state != stWaiting {
			continue // issued or flushed since it was enqueued
		}
		rq = append(rq, e)
		for j := len(rq) - 1; j > 0 && rq[j].u.dispSeq < rq[j-1].u.dispSeq; j-- {
			rq[j], rq[j-1] = rq[j-1], rq[j]
		}
	}
	c.readyQ = rq
	for _, e := range rq {
		ready = append(ready, e.u)
	}
	sp := c.specials[:0]
	for _, e := range c.specials {
		if e.u.id != e.id || e.u.state != stWaiting {
			continue
		}
		sp = append(sp, e)
		if c.specialReady(e.u) {
			ready = append(ready, e.u)
		}
	}
	c.specials = sp
	c.issueFrom(ready)
	c.ready_ = ready[:0]
}

// issueScan is the legacy selection loop: scan the whole RS, test every
// waiting uop's operands, and sort the ready set. Kept behind
// Config.ForceCycleAccurate as the reference the event-driven path is
// equivalence-tested against.
func (c *Core) issueScan() {
	live := c.rs[:0]
	ready := c.ready_[:0]
	for _, u := range c.rs {
		if u.state != stWaiting {
			continue // issued, flushed: drop from RS view
		}
		live = append(live, u)
		if c.ready(u) {
			ready = append(ready, u)
		}
	}
	c.rs = live
	c.issueFrom(ready)
	c.ready_ = ready[:0]
}

// issueFrom puts the candidate set into issue order (sortForIssue) and
// issues up to IssueWidth instructions within per-class port capacity.
func (c *Core) issueFrom(ready []*uop) {
	sortForIssue(ready)

	budget := c.cfg.IssueWidth
	var ports [isa.NumClasses]int
	for _, u := range ready {
		if budget == 0 {
			break
		}
		cl := u.d.Inst.Op.Class()
		if ports[cl] >= classPorts[cl] {
			continue
		}
		ports[cl]++
		budget--
		c.issueOne(u)
	}
}

// sortForIssue orders the candidate set as the legacy RS scan did: the
// candidates in dispatch order, then sorted by age with an unstable sort.
// That sort must keep matching what sort.Slice did in the original scan
// implementation, because the order of equal-age candidates is
// observable: slices.SortFunc instantiates the same pdqsort template, so
// equal ages permute identically given the same input order — without
// sort.Slice's per-call boxing allocations. dispSeq is unique, so a set
// already in dispatch order needs no presort. Only a set whose ages
// strictly increase skips the age sort: without ties its sorted order is
// unique, whereas pdqsort may reorder equal ages even in an already
// non-decreasing input.
func sortForIssue(ready []*uop) {
	if !sortedBy(ready, func(u *uop) uint64 { return u.dispSeq }) {
		slices.SortFunc(ready, func(a, b *uop) int {
			if a.dispSeq < b.dispSeq {
				return -1
			}
			return 1
		})
	}
	if !sortedBy(ready, func(u *uop) uint64 { return u.age }) {
		slices.SortFunc(ready, func(a, b *uop) int {
			if a.age < b.age {
				return -1
			}
			if a.age > b.age {
				return 1
			}
			return 0
		})
	}
}

// sortedBy reports whether key strictly increases along us.
func sortedBy(us []*uop, key func(*uop) uint64) bool {
	for i := 1; i < len(us); i++ {
		if key(us[i-1]) >= key(us[i]) {
			return false
		}
	}
	return true
}

// ready reports whether all of u's operands are available and any
// execution-ordering constraint is met (legacy scan path).
func (c *Core) ready(u *uop) bool {
	for i := 0; i < u.ndeps; i++ {
		if !u.deps[i].ready(c.now) {
			return false
		}
	}
	return c.specialReady(u)
}

// specialReady checks the non-operand readiness conditions.
func (c *Core) specialReady(u *uop) bool {
	// Reduction updates execute only at the head of the ROB (§4.5),
	// like atomics in conventional cores.
	if u.reduce {
		h := u.t.list.Head()
		if h == nil || h.Val != u {
			return false
		}
	}
	// Barriers wait for the simulator-level release.
	if u.d.Inst.Op == isa.Barrier && !u.barrierOK {
		return false
	}
	return true
}

// registerWakeups parks a freshly dispatched uop on the waiter lists of
// its not-yet-complete producers; a uop with no outstanding operands goes
// straight to the ready (or specials) queue. Duplicate producers register
// — and later decrement — once per dep slot, so the count stays balanced.
func (c *Core) registerWakeups(u *uop) {
	wait := 0
	for i := 0; i < u.ndeps; i++ {
		r := u.deps[i]
		if r.ready(c.now) {
			continue
		}
		r.u.waiters = append(r.u.waiters, waiter{u: u, id: u.id})
		wait++
	}
	u.waitCount = wait
	if wait == 0 {
		c.enqueueReady(u)
	}
}

// enqueueReady moves a uop whose operands are all available into the
// selection pool: the ready queue, or the polled specials list when its
// readiness has a non-operand component.
func (c *Core) enqueueReady(u *uop) {
	e := readyRef{u: u, id: u.id}
	if u.reduce || u.d.Inst.Op == isa.Barrier {
		c.specials = append(c.specials, e)
	} else {
		c.readyQ = append(c.readyQ, e)
	}
}

// wakeWaiters notifies the dependents of a uop that just produced its
// result (complete) or ceased to exist (flush): each live dependent's
// outstanding-operand count drops, and the last wake enqueues it for
// issue. The list is cleared — a dependent is decremented exactly once
// per registration, and a recycled producer starts empty.
func (c *Core) wakeWaiters(p *uop) {
	if len(p.waiters) == 0 {
		return
	}
	for _, w := range p.waiters {
		u := w.u
		if u.id != w.id || u.state != stWaiting {
			continue // dependent already issued, flushed, or recycled
		}
		u.waitCount--
		if u.waitCount == 0 {
			c.enqueueReady(u)
		}
	}
	p.waiters = p.waiters[:0]
}

// issueOne starts execution of u and schedules its completion.
func (c *Core) issueOne(u *uop) {
	u.state = stIssued
	u.issueCycle = c.now
	c.rsUsed--
	c.activity = true

	op := u.d.Inst.Op
	var done int64
	switch {
	case op.IsLoad():
		done = c.loadDone(u)
		if done-c.now > 100 {
			c.stats.LongLoads++
			c.longUntil = append(c.longUntil, done)
			c.longMin = min(c.longMin, done)
		}
	case op.IsAtomic():
		done = c.loadDone(u) + int64(c.cfg.AtomicExtra)
	case op.IsStore():
		// Stores are "done" once their address and data are ready;
		// memory is updated at commit.
		done = c.now + 1
	case op == isa.Barrier:
		done = c.now + int64(c.cfg.BarrierLat)
	default:
		done = c.now + int64(op.Class().Latency())
	}
	c.schedule(u, done)
}

// loadDone computes when a load's data arrives: store forwarding when an
// older overlapping store is in flight, otherwise a cache access. Wrong-
// path loads touch the cache too (pollution and prefetching effects,
// §6.1), except out-of-bounds wrong-path addresses.
func (c *Core) loadDone(u *uop) int64 {
	if u.fwdStore.u != nil && u.fwdStore.u.id == u.fwdStore.id {
		s := u.fwdStore.u
		if s.state == stWaiting || s.state == stIssued || s.state == stDone {
			return c.now + int64(c.cfg.StoreFwdLat)
		}
	}
	if u.d.MemOOB {
		return c.now + int64(c.hier.L1D.Config().HitLatency)
	}
	if u.d.Wrong && !c.cfg.WrongPathMemAccess {
		// Wrong-path loads occupy resources and take a mid-hierarchy
		// latency, but neither warm nor pollute the caches.
		return c.now + int64(c.hier.L2.Config().HitLatency)
	}
	return c.hier.Data(u.d.Addr, uint64(u.d.PC), c.now, false)
}
