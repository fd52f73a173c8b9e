package blp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements batched replay at the Runner layer: a
// RunAllContext fan-out whose requests share a workload (same TraceKey)
// under two or more distinct timing configurations is simulated as one
// sim.RunBatch call — every trace record decoded once and fanned out to
// all lanes — instead of N independent replays. Results are byte-identical to
// the serial replay path; only the accounting (RunnerStats.Batched,
// BatchGroups) and the wall clock differ.

// laneOut is one lane's outcome, delivered by batchGroup.run.
type laneOut struct {
	res     *Result
	err     error
	elapsed time.Duration
}

// laneReq is one registered lane: the member's options and the capacity-1
// channel its result is delivered on.
type laneReq struct {
	o  Options
	ch chan laneOut
}

// batchGroup coordinates the same-workload lanes of one RunAllContext
// fan-out. Every member arrives exactly once — registering a lane when
// its memo-cache computation actually runs, or declining when it was
// answered by a cache hit, a joined in-flight run, or the durable store —
// and the last arrival launches the batch. Declining must never wait on
// anything the group itself produces (see Runner.runGrouped), or two
// concurrent fan-outs over overlapping keys could deadlock.
type batchGroup struct {
	r   *Runner
	ctx context.Context
	tk  string

	mu      sync.Mutex
	pending int // members yet to arrive
	lanes   []*laneReq
}

// arrive records one member's decision: lr == nil declines, non-nil
// registers a lane. The last arrival launches the batch if any lane
// registered.
func (g *batchGroup) arrive(lr *laneReq) {
	g.mu.Lock()
	if lr != nil {
		g.lanes = append(g.lanes, lr)
	}
	g.pending--
	launch := g.pending == 0 && len(g.lanes) > 0
	g.mu.Unlock()
	if launch {
		go g.run()
	}
}

// run executes the registered lanes as one batched simulation under a
// single worker slot and delivers each lane's result. Counters mirror the
// serial path: every lane counts toward Simulated/InFlight/Replayed; the
// whole group counts once toward Captured at most (inside fetchTrace's
// singleflight).
func (g *batchGroup) run() {
	r := g.r
	lanes := g.lanes // immutable once launched
	k := len(lanes)
	delivered := false
	deliverAll := func(err error) {
		for _, lr := range lanes {
			lr.ch <- laneOut{err: err}
		}
		delivered = true
	}

	select {
	case r.sem <- struct{}{}:
	case <-g.ctx.Done():
		deliverAll(g.ctx.Err())
		return
	}
	r.mu.Lock()
	r.inFlight += k
	r.mu.Unlock()

	start := time.Now()
	defer func() {
		if p := recover(); p != nil && !delivered {
			deliverAll(fmt.Errorf("blp: batched simulation of %s panicked: %v", g.tk, p))
		}
		elapsed := time.Since(start)
		r.mu.Lock()
		r.inFlight -= k
		r.simulated += k
		w := r.progress
		r.mu.Unlock()
		<-r.sem
		if w != nil {
			st := r.Stats()
			for _, lr := range lanes {
				fmt.Fprintf(w, "run %-32s %8s  [batch of %d; %d simulated, %d cached, %d in flight]\n",
					describeRun(lr.o), elapsed.Round(time.Millisecond), k,
					st.Simulated, st.Cached, st.InFlight)
			}
		}
	}()

	tr, err := r.fetchTrace(g.ctx, lanes[0].o.normalized())
	if err != nil {
		deliverAll(err)
		return
	}
	r.mu.Lock()
	r.replayed += k
	r.batched += k
	r.batchGroups++
	r.batchHist[k]++
	r.mu.Unlock()

	opts := make([]Options, k)
	for i, lr := range lanes {
		opts[i] = lr.o
	}
	results, errs := runBatchContext(g.ctx, opts, tr)
	elapsed := time.Since(start)
	for i, lr := range lanes {
		lr.ch <- laneOut{res: results[i], err: errs[i], elapsed: elapsed}
	}
	delivered = true
}

// runGrouped is the RunCached path for a batch group member: identical
// memoization, store, and counter semantics, but when the computation
// actually runs it contributes a lane to the group instead of simulating
// alone. Arrival is guaranteed exactly once on every path — including a
// join against a foreign in-flight computation, which declines through
// the DoWithJoin hook before blocking (waiting to decline until that
// computation finished could deadlock two overlapping fan-outs against
// each other's groups).
func (r *Runner) runGrouped(ctx context.Context, o Options, g *batchGroup) (*Result, error) {
	arrived := false
	arrive := func(lr *laneReq) {
		if !arrived {
			arrived = true
			g.arrive(lr)
		}
	}
	if err := ctx.Err(); err != nil {
		arrive(nil)
		return nil, err
	}
	participated := false
	res, err, shared := r.cache.DoWithJoin(ctx, o.Key(), func() (*Result, error) {
		participated = true
		return r.executeGrouped(ctx, o, g, arrive)
	}, func() { arrive(nil) })
	if !participated {
		arrive(nil) // resident-entry hit: fn and the join hook both skipped
	}
	if shared && err == nil {
		r.mu.Lock()
		r.cached++
		w := r.progress
		r.mu.Unlock()
		if w != nil && o.Flight != nil {
			fmt.Fprintf(w, "run %-32s served from cache; its flight recorder stays empty\n",
				describeRun(o))
		}
	}
	return res, err
}

// executeGrouped is execute for a group member: the store warm-start path
// declines the group, everything else registers a lane and waits for the
// batch to deliver. Store write-through and the ledger record happen here,
// per lane, exactly as execute does for serial runs.
func (r *Runner) executeGrouped(ctx context.Context, o Options, g *batchGroup, arrive func(*laneReq)) (*Result, error) {
	if res, ok := r.storeLoadResult(o.Key()); ok {
		arrive(nil)
		return res, nil
	}
	ch := make(chan laneOut, 1)
	arrive(&laneReq{o: o, ch: ch})
	select {
	case out := <-ch:
		if out.err == nil {
			r.storeSaveResult(o.Key(), out.res)
			r.ledgerResult(o, out.res, out.elapsed)
		}
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// groupBatches partitions a fan-out into batch groups: replay-eligible
// requests sharing a TraceKey, two or more distinct configurations each.
// member[i] == nil rides the normal memoized path — ineligible requests,
// lone configurations, and duplicate Keys (those join the group member's
// in-flight computation like any duplicate). The runFn test seam disables
// grouping: it stands in for RunContext, which batching does not call.
func (r *Runner) groupBatches(ctx context.Context, opts []Options) []*batchGroup {
	member := make([]*batchGroup, len(opts))
	if r.runFn != nil {
		return member
	}
	seenKey := make(map[string]bool)
	byTK := make(map[string][]int)
	for i, o := range opts {
		n := o.normalized()
		if !replayEligible(n) {
			continue
		}
		if k := o.Key(); seenKey[k] {
			continue
		} else {
			seenKey[k] = true
		}
		tk := n.TraceKey()
		byTK[tk] = append(byTK[tk], i)
	}
	for tk, idxs := range byTK {
		if len(idxs) < 2 {
			continue
		}
		g := &batchGroup{r: r, ctx: ctx, tk: tk, pending: len(idxs)}
		for _, i := range idxs {
			member[i] = g
		}
	}
	return member
}

// runBatchContext simulates every lane of a same-workload group over one
// shared trace decode (sim.RunBatch), returning per-lane results and
// errors. Lanes whose workload fails to build are reported individually;
// the rest still run.
func runBatchContext(ctx context.Context, opts []Options, tr *trace.Trace) ([]*Result, []error) {
	n := len(opts)
	results := make([]*Result, n)
	errs := make([]error, n)

	var live []int
	cfgs := make([]sim.Config, 0, n)
	ws := make([]*sim.Workload, 0, n)
	for i, o := range opts {
		ni := o.normalized()
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("blp: %s (%v) canceled before build: %w", o.Benchmark, o.Mode, err)
			continue
		}
		w, err := kernels.Build(buildSpec(ni))
		if err != nil {
			errs[i] = err
			continue
		}
		cfgs = append(cfgs, simConfig(ctx, ni))
		ws = append(ws, w)
		live = append(live, i)
	}
	if len(live) == 0 {
		return results, errs
	}

	simRes, simErrs := sim.RunBatch(tr, cfgs, ws)
	for j, i := range live {
		if simErrs[j] != nil {
			errs[i] = fmt.Errorf("blp: %s (%v): %w", opts[i].Benchmark, opts[i].Mode, simErrs[j])
			continue
		}
		results[i] = makeResult(simRes[j])
	}
	return results, errs
}
