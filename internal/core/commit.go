package core

import "repro/internal/isa"

// commit retires completed instructions in logical program order (walking
// the linked-list ROB heads), up to CommitWidth per cycle shared round-
// robin across threads. Stores write memory timing-wise at commit. Commit
// never passes an incomplete hole: the splice cursor of a pending miss
// retires into a resource-free tombstone that stays linked as the order
// boundary until the rest of the resolved path arrives (DESIGN.md,
// deviation 3).
func (c *Core) commit() {
	slots := c.cfg.CommitWidth
	stuck := 0
	for slots > 0 && stuck < len(c.threads) {
		t := c.threads[c.commitRR%len(c.threads)]
		c.commitRR++
		n := c.commitThread(t, slots)
		if n == 0 {
			stuck++
		} else {
			stuck = 0
			slots -= n
		}
	}
}

// commitThread retires up to max instructions from one thread.
func (c *Core) commitThread(t *thread, max int) int {
	n := 0
	for n < max {
		h := t.list.Head()
		if h == nil {
			break
		}
		u := h.Val
		if u.tombstone {
			// The head is an order boundary awaiting its splice;
			// nothing behind it may retire.
			break
		}
		if u.drainHold {
			// Boundary branch of a partial flush: parked victims are
			// still draining behind it.
			break
		}
		if u.state != stDone || u.doneAt > c.now {
			break
		}
		// Commit must not pass an incomplete hole: the rest of the
		// resolved path is logically older than everything behind the
		// splice cursor. The cursor itself retires into a tombstone —
		// its resources are released (so the reserved entries keep
		// cycling, the §4.7 guarantee) but the node stays linked as
		// the order boundary and splice position (the paper's
		// linked-ROB pointer to the next free entry, Fig. 2(d)).
		if u.spliceHold != nil && !u.spliceHold.segDispatched && !u.spliceHold.cancelled {
			if !u.tombstone {
				u.tombstone = true
				c.release(t, u)
				n++
			}
			break
		}
		c.retire(t, u)
		n++
	}
	return n
}

func (c *Core) retire(t *thread, u *uop) {
	if u.tombstone {
		// Resources and stats were handled when the tombstone was
		// created; the node was kept only as the splice boundary.
		t.list.Remove(&u.node)
		c.freeUop(u)
		return
	}
	c.release(t, u)
	t.list.Remove(&u.node)
	c.freeUop(u)
}

// release returns a retiring uop's resources and performs its commit-time
// actions, leaving the node linked (retire or the splice path unlinks it).
func (c *Core) release(t *thread, u *uop) {
	op := u.d.Inst.Op

	c.space.Release()
	c.space.CommitSeq(u.d.Seq)
	needLQ, needSQ := resourceNeeds(op)
	if needLQ {
		c.lqUsed--
	}
	if needSQ {
		c.sqUsed--
	}
	// Mirrors dispatch's increment condition exactly: wrong-path in-slice
	// uops never enter the count, so a (buggy) commit of one must not
	// decrement it either.
	if u.d.InSlice && !u.d.Wrong {
		c.inSliceCount--
	}
	t.inflight--

	switch {
	case op.IsStore(), op.IsAtomic():
		// The architectural write happened in the emulator; charge
		// the cache timing at retirement (store-buffer drain).
		if !u.d.MemOOB {
			c.hier.Data(u.d.Addr, uint64(u.d.PC), c.now, true)
		}
		if op.IsStore() {
			t.removeStore(u)
		}
	case op == isa.Halt:
		t.done = true
		c.running--
	}

	u.state = stCommitted
	c.stats.Committed++
	c.committedThisCycle++
	c.activity = true
	if c.rec != nil {
		c.recordUop(u, false)
	}
	if c.traceOn {
		c.trace("COMMIT      t%d %s", t.id, traceUop(u))
	}
}

// removeStore drops a retired or flushed store from the forwarding list.
// Swap-remove: youngestOlderStore selects by sequence number, never by
// list position, so the order of t.stores is free.
func (t *thread) removeStore(u *uop) {
	for i, s := range t.stores {
		if s == u {
			last := len(t.stores) - 1
			t.stores[i] = t.stores[last]
			t.stores[last] = nil
			t.stores = t.stores[:last]
			return
		}
	}
}
