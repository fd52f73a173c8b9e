package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	blp "repro"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file drives the layers below blp directly, the way blp.Run does
// internally, so a traced run can time each layer on its own. The
// mapping from blp.Options to a kernels.Spec and a sim.Config is
// restated here from blp; the output check compares every direct result
// with blp's own, so a drift between the two fails the check.

// specOf is the kernels build request blp makes for o (one hardware
// thread; every other field is defaulted by kernels.Spec.Normalize
// exactly as blp normalizes Options).
func specOf(o blp.Options) kernels.Spec {
	return kernels.Spec{Kernel: o.Benchmark, Scale: o.Scale, Degree: o.Degree, Seed: o.Seed, Mode: o.Mode, Threads: 1}
}

// build is kernels.Build inside a "kernels.Build" span.
func build(t *tracer, op, parent int, o blp.Options) (w *sim.Workload, err error) {
	t.do("kernels.Build", op, parent, func() { w, err = kernels.Build(specOf(o)) })
	return w, err
}

// simConfigOf is the single-core sim configuration blp uses for o.
func simConfigOf(o blp.Options) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	cfg.Core.SelectiveFlush = o.Mode != blp.SliceNone
	sp, err := core.ParsePolicy(o.Policy)
	if err != nil {
		return cfg, err
	}
	if sp.Kind == core.PolicyAuto {
		sp.Kind = core.PolicyConventional
		if o.Mode != blp.SliceNone {
			sp.Kind = core.PolicySelective
		}
	}
	cfg.Core.Recovery = sp
	if o.Predictor != "" {
		cfg.Core.Predictor = o.Predictor
	}
	if o.Reserve != 0 {
		cfg.Core.Reserve = o.Reserve
	}
	if o.ROBBlockSize != 0 {
		cfg.Core.ROBBlockSize = o.ROBBlockSize
	}
	if o.FRQSize != 0 {
		cfg.Core.FRQSize = o.FRQSize
	}
	cfg.Ctx = context.Background()
	return cfg, nil
}

// directResult is one simulation driven layer by layer.
type directResult struct {
	res          *sim.Result
	build, simul time.Duration
	mallocs      uint64
}

// runDirect builds o's workload and simulates it with sim.Run, live or
// (tr non-nil) replaying a captured trace, each step in its own span.
// Heap allocations during sim.Run are counted from runtime.MemStats.
func runDirect(t *tracer, op, parent int, o blp.Options, replay *trace.Trace) (*directResult, error) {
	cfg, err := simConfigOf(o)
	if err != nil {
		return nil, err
	}
	cfg.Replay = replay
	d := &directResult{}
	t0 := time.Now()
	w, err := build(t, op, parent, o)
	d.build = time.Since(t0)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	name := "sim.Run"
	if replay != nil {
		name = "sim.Run.replay"
	}
	t0 = time.Now()
	t.do(name, op, parent, func() { d.res, err = sim.Run(cfg, w) })
	d.simul = time.Since(t0)
	runtime.ReadMemStats(&ms)
	d.mallocs = ms.Mallocs - before
	if err != nil {
		return nil, fmt.Errorf("%s: %w", describe(o), err)
	}
	return d, nil
}

// capture records w's committed instruction stream with trace.Capture,
// in a span, and checks the final memory against the kernel's host
// reference. It returns the trace and the host time the capture took.
func capture(t *tracer, op int, w *sim.Workload) (*trace.Trace, time.Duration, error) {
	var tr *trace.Trace
	var err error
	t0 := time.Now()
	t.do("trace.Capture", op, 0, func() { tr, err = trace.Capture(context.Background(), w.Progs[0], w.Mem) })
	took := time.Since(t0)
	if err != nil {
		return nil, took, err
	}
	if err := w.Check(w.Mem); err != nil {
		return nil, took, fmt.Errorf("captured run of %s failed the memory check: %w", w.Name, err)
	}
	return tr, took, nil
}

// describe names one configuration in messages.
func describe(o blp.Options) string {
	s := fmt.Sprintf("%s/%v s%d seed%d", o.Benchmark, o.Mode, o.Scale, o.Seed)
	if o.Degree != 0 {
		s += fmt.Sprintf(" degree=%d", o.Degree)
	}
	if o.Policy != "" {
		s += " policy=" + o.Policy
	}
	if o.Predictor != "" {
		s += " predictor=" + o.Predictor
	}
	if o.FRQSize != 0 {
		s += fmt.Sprintf(" frq=%d", o.FRQSize)
	}
	if o.ROBBlockSize != 0 {
		s += fmt.Sprintf(" rob-block=%d", o.ROBBlockSize)
	}
	if o.Reserve != 0 {
		s += fmt.Sprintf(" reserve=%d", o.Reserve)
	}
	return s
}

// addCoreCounts adds one simulation's modelled counters to the per-layer
// metrics. All of them are simulated quantities and repeat exactly for a
// given seed.
func addCoreCounts(m map[string]float64, r *sim.Result) {
	s := r.Total
	m["core.cycles"] += float64(r.Cycles)
	m["core.committed"] += float64(s.Committed)
	m["core.uops_fetched"] += float64(s.UopsFetched)
	m["core.uops_squashed"] += float64(s.UopsSquashed)
	m["core.mispredicts"] += float64(s.Mispredicts)
	m["core.slice_recoveries"] += float64(s.SliceRecoveries)
	m["core.conv_recoveries"] += float64(s.ConvRecoveries)
	m["core.flushed_selective"] += float64(s.FlushedSelective)
	m["core.flushed_full"] += float64(s.FlushedFull)
	m["cache.l1d_misses"] += float64(r.L1DMisses)
	m["cache.llc_misses"] += float64(r.LLCMisses)
}

// finishCoreRatios derives the ratio metrics from the summed counts.
func finishCoreRatios(m map[string]float64) {
	m["core.useful_ratio"] = ratio(m["core.committed"], m["core.uops_fetched"])
	m["bpred.mpki"] = ratio(1000*m["core.mispredicts"], m["core.committed"])
}

// runnerCounts copies a Runner's accounting into the per-layer metrics.
func runnerCounts(m map[string]float64, r *blp.Runner) {
	st := r.Stats()
	m["blp.simulated"] = float64(st.Simulated)
	m["blp.captured"] = float64(st.Captured)
	m["blp.replayed"] = float64(st.Replayed)
	m["blp.batched"] = float64(st.Batched)
	m["blp.batch_groups"] = float64(st.BatchGroups)
	m["trace.seg_hits"] = float64(st.SegHits)
	m["trace.seg_invalidated"] = float64(st.SegInvalidated)
	m["trace.seg_bypassed"] = float64(st.SegBypassed)
	cs := r.CacheStats()
	m["memo.hit_ratio"] = ratio(float64(cs.Hits+cs.Joined), float64(cs.Hits+cs.Joined+cs.Misses))
	m["memo.trace_hit_ratio"] = ratio(float64(cs.Trace.Hits+cs.Trace.Joined),
		float64(cs.Trace.Hits+cs.Trace.Joined+cs.Trace.Misses))
	m["memo.evictions"] = float64(cs.Evictions + cs.Trace.Evictions)
	m["memo.bytes"] = float64(cs.Bytes + cs.Trace.Bytes)
	if s := cs.Store; s != nil {
		m["store.writes"] = float64(s.Writes)
		m["store.bytes"] = float64(s.Bytes)
	}
}

// Stored object keys, as blp names them (runner_store.go): a result
// under its Options.Key, a trace under its workload's Options.TraceKey.
const (
	storedResultPrefix = "result/"
	storedTracePrefix  = "traceobj/"
)

// storedObject is one object a Runner wrote to its store, found through
// the store's ledger.
type storedObject struct {
	kind, key string
	data      []byte
}

// probeStore reopens the store in dir, reads back every object its
// ledger records (timing each store.Get), then writes every payload into
// a fresh store under scratch (timing each store.Put). It returns the
// objects read.
func probeStore(t *tracer, m map[string]float64, dir, scratch string) ([]storedObject, error) {
	entries, err := store.ReadLedger(store.LedgerPath(dir))
	if err != nil {
		return nil, err
	}
	st, err := blp.OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var objs []storedObject
	var get time.Duration
	for _, e := range entries {
		var data []byte
		var ok bool
		t0 := time.Now()
		t.do("store.Get", t.newOp(), 0, func() { data, ok = st.Get(e.Key) })
		get += time.Since(t0)
		if !ok {
			return nil, fmt.Errorf("store object %q from the ledger is missing", e.Key)
		}
		objs = append(objs, storedObject{kind: e.Kind, key: e.Key, data: data})
	}
	m["store.get_ms"] = ratio(get.Seconds()*1000, float64(len(objs)))

	fresh, err := blp.OpenStore(filepath.Join(scratch, "put-probe"), 0)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(fresh.Dir())
	defer fresh.Close()
	var put time.Duration
	for _, o := range objs {
		var perr error
		t0 := time.Now()
		t.do("store.Put", t.newOp(), 0, func() { perr = fresh.Put(o.key, o.data) })
		put += time.Since(t0)
		if perr != nil {
			return nil, perr
		}
	}
	m["store.put_ms"] = ratio(put.Seconds()*1000, float64(len(objs)))
	return objs, nil
}

// decodeTraces decodes, each in a trace.Decode span, the stored traces
// of the workloads named by their TraceKeys (every stored trace when tks
// is nil), and records their total size and decode time.
func decodeTraces(t *tracer, m map[string]float64, objs []storedObject, tks map[string]bool) error {
	var decode time.Duration
	for _, o := range objs {
		tk, ok := strings.CutPrefix(o.key, storedTracePrefix)
		if o.kind != "trace" || !ok || (tks != nil && !tks[tk]) {
			continue
		}
		var derr error
		t0 := time.Now()
		t.do("trace.Decode", t.newOp(), 0, func() { _, derr = trace.Decode(o.data) })
		decode += time.Since(t0)
		if derr != nil {
			return fmt.Errorf("decoding stored trace %q: %w", o.key, derr)
		}
		m["trace.bytes"] += float64(len(o.data))
	}
	m["trace.decode_s"] = decode.Seconds()
	return nil
}

// findTrace returns the decoded trace object stored for o's workload.
func findTrace(objs []storedObject, o blp.Options) (*trace.Trace, error) {
	key := storedTracePrefix + o.TraceKey()
	for _, ob := range objs {
		if ob.kind == "trace" && ob.key == key {
			return trace.Decode(ob.data)
		}
	}
	return nil, fmt.Errorf("no stored trace for %s", describe(o))
}
