package trace

import (
	"fmt"
	"sync"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Batch decodes each trace record exactly once — PC/flags/vals/addrs
// cursor advance, branch/slice/next-PC reconstruction — into a shared
// ring of immutable records, and fans the stream out to any number of
// per-config Replay views. A view keeps its own memory image, register
// file and stream cursor (architectural effects are per-view: each timing
// config's wrong paths fork from that view's state), but the decode work
// and the DynInst construction are shared across all of them.
//
// A serial replay is a batch of one view (NewReplay); a sweep's lanes are
// views stepped concurrently, one goroutine each (sim.RunBatch). The ring is
// a fixed-size window: a view that outruns the slowest live view by more
// than batchWindow records blocks until the stream's tail catches up, so
// the ring never grows and stays hot in cache. Coordination is kept off
// the per-record fast path: each view publishes its cursor under the
// batch mutex only every batchPubChunk records (or when it needs records
// decoded), reads of already-decoded records are lock-free, and the
// publication points establish the happens-before edges that make both
// the lock-free reads and the ring-slot reuse sound — a slot is rewritten
// only when every view's published cursor (a lower bound on its real
// cursor, refreshed at least every batchPubChunk records) has passed it
// by a full window.
type Batch struct {
	tr   *Trace
	prog *isa.Program

	mu   sync.Mutex
	cond sync.Cond

	ring []batchRec
	mask int
	next int // next record index to decode
	low  int // cached lower bound over the views' published cursors

	vi, ai  int // decode cursors into the dense vals/addrs streams
	inSlice bool
	sliceID uint64

	views map[*Replay]int // published stream cursor per live view
}

// batchRec is one decoded record: the DynInst every view returns, plus
// the destination value the view applies to its own register file.
type batchRec struct {
	d   emu.DynInst
	val uint64
	fl  uint8
}

const (
	// batchRingSize is the ring capacity in records; batchWindow (half of
	// it) is how far the decode head may run past the slowest view. The
	// gap between them absorbs publication staleness: a view's published
	// cursor lags its real cursor by at most batchPubChunk records, and
	// batchWindow+batchPubChunk < batchRingSize keeps reuse safe.
	batchRingSize = 1 << 15
	batchWindow   = 1 << 14
	// batchPubChunk is how often (in records consumed) a view publishes
	// its cursor when it has no other reason to take the batch lock.
	batchPubChunk = 1 << 12
	// batchDecodeAhead is how far past its own cursor a decoding view
	// runs the shared decode head per sync. Without it the front view —
	// whose cursor is always at the head — would take the batch lock once
	// per record; with it, once per chunk.
	batchDecodeAhead = 1 << 10
)

// NewBatch builds a shared decoder over tr for prog. The program must be
// the one the trace was captured from (checked cheaply by name and
// length).
func NewBatch(tr *Trace, prog *isa.Program) (*Batch, error) {
	if prog.Name != tr.progName || len(prog.Code) != tr.progLen {
		return nil, fmt.Errorf("trace: replaying %s (%d insts) with trace of %s (%d insts)",
			prog.Name, len(prog.Code), tr.progName, tr.progLen)
	}
	b := &Batch{
		tr:    tr,
		prog:  prog,
		ring:  make([]batchRec, batchRingSize),
		mask:  batchRingSize - 1,
		views: make(map[*Replay]int),
	}
	b.cond.L = &b.mu
	return b, nil
}

// NewView adds a replay view over the shared ring. mem is the view's own
// initial memory image (each timing config mutates its own copy). Views
// must be created before any of them steps.
func (b *Batch) NewView(mem []byte) *Replay {
	r := &Replay{tr: b.tr, prog: b.prog, mem: mem, batch: b}
	if len(b.tr.pcs) > 0 {
		r.nextPC = int(b.tr.pcs[0])
	}
	b.mu.Lock()
	b.views[r] = 0
	b.mu.Unlock()
	return r
}

// Drop detaches a view (finished or failed) so it no longer bounds the
// ring's reuse window; waiters blocked on its progress are woken.
func (b *Batch) Drop(r *Replay) {
	b.mu.Lock()
	delete(b.views, r)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// minPubLocked recomputes the lower bound over published cursors. With no
// live views the decode head bounds itself.
func (b *Batch) minPubLocked() int {
	m := b.next
	for _, c := range b.views {
		if c < m {
			m = c
		}
	}
	return m
}

// publish records the view's cursor under the lock and wakes any view
// waiting for the window's tail to advance.
func (r *Replay) publish() {
	b := r.batch
	b.mu.Lock()
	b.views[r] = r.cur
	r.pubCur = r.cur
	b.cond.Broadcast()
	b.mu.Unlock()
}

// syncBatch publishes the view's cursor and ensures record r.cur is
// decoded, blocking while decoding would overwrite a slot a slower live
// view may still read. On return r.decoded covers r.cur, so subsequent
// steps read the ring lock-free until the next sync point.
//
// The slowest live view never blocks here: its records are either already
// decoded, or the window bound is measured against (at worst) its own
// just-published cursor.
func (r *Replay) syncBatch() error {
	b := r.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	b.views[r] = r.cur
	r.pubCur = r.cur
	b.cond.Broadcast()
	// Decode past r.cur by a whole chunk so the front view amortizes its
	// lock acquisitions; waiting on the window is only allowed while the
	// view's own record is still missing (the decode-ahead tail is
	// opportunistic, never worth blocking for).
	ahead := r.cur + batchDecodeAhead
	if n := len(b.tr.pcs); ahead > n {
		ahead = n // callers never sync with cur at or past the end
	}
	for b.next < ahead {
		if b.next-b.low >= batchWindow {
			b.low = b.minPubLocked()
			if b.next-b.low >= batchWindow {
				if b.next > r.cur {
					break
				}
				// Another view may decode our records while we wait, so
				// re-evaluate the loop condition from scratch on wake.
				b.cond.Wait()
				continue
			}
		}
		if err := b.decodeOne(); err != nil {
			return err
		}
	}
	r.decoded = b.next
	return nil
}

// decodeOne advances the shared decode cursor by one record,
// reconstructing everything but the per-view architectural effects (Seq,
// Taken, Addr, destination value, slice context, next-PC). Caller holds b.mu
// and has established that the target slot is reusable.
func (b *Batch) decodeOne() error {
	cur := b.next
	if cur >= len(b.tr.pcs) {
		return fmt.Errorf("trace: %s: batch decode past end of stream (record %d)",
			b.prog.Name, cur)
	}
	pc := int(b.tr.pcs[cur])
	fl := b.tr.flags[cur]
	in := b.prog.Code[pc]
	d := emu.DynInst{
		Seq:     uint64(cur),
		PC:      pc,
		Inst:    in,
		Taken:   fl&flagTaken != 0,
		InSlice: b.inSlice,
		SliceID: b.sliceID,
	}
	if fl&flagAddr != 0 {
		d.Addr = b.tr.addrs[b.ai]
		b.ai++
	}
	var val uint64
	if fl&flagVal != 0 {
		val = b.tr.vals[b.vi]
		b.vi++
	}
	next := pc + 1
	switch in.Op {
	case isa.Jmp:
		next = int(in.Imm)
	case isa.SliceStart:
		b.inSlice = true
		b.sliceID++
		d.SliceID = b.sliceID
	case isa.SliceEnd:
		b.inSlice = false
	}
	if in.Op.IsBranch() && d.Taken {
		next = int(in.Imm)
	}
	d.NextPC = next
	b.ring[cur&b.mask] = batchRec{d: d, val: val, fl: fl}
	b.next++
	return nil
}
