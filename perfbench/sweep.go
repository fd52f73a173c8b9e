package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	blp "repro"
	"repro/internal/sim"
)

// The sweep workload: a cold Runner over a fresh durable store runs one
// RunAll campaign of eight timing configurations on each of cc, bfs and
// ms (outer slicing, default scale). Trace capture, the batched-replay
// decode ring, the wrong-path segment cache and the recovery-policy
// victim walks do the work, with write-through to the store.

var sweepKernels = []string{"cc", "bfs", "ms"}

// sweepVariants are the eight timing configurations of every kernel.
var sweepVariants = []func(*blp.Options){
	func(o *blp.Options) { o.Policy = "selective" },
	func(o *blp.Options) { o.Policy = "conventional" },
	func(o *blp.Options) { o.Policy = "partial:16" },
	func(o *blp.Options) { o.Policy = "throttle:2" },
	func(o *blp.Options) { o.Predictor = "oracle" },
	func(o *blp.Options) { o.FRQSize = 2 },
	func(o *blp.Options) { o.ROBBlockSize = 4 },
	func(o *blp.Options) { o.Reserve = 16 },
}

// sweepConfigs are the 24 campaign configurations for a seed, grouped by
// kernel (len(sweepVariants) consecutive entries each).
func sweepConfigs(seed uint64) []blp.Options {
	var opts []blp.Options
	for _, b := range sweepKernels {
		for _, v := range sweepVariants {
			o := blp.Options{Benchmark: b, Mode: blp.SliceOuter, Seed: seed}
			v(&o)
			opts = append(opts, o)
		}
	}
	return opts
}

type sweepState struct {
	opts   []blp.Options
	buildS float64
}

func setupSweep(e *env) (workload, error) {
	opts := sweepConfigs(e.seed)
	s, err := buildAll(e.tr, opts)
	if err != nil {
		return nil, err
	}
	return &sweepState{opts, s}, nil
}

// campaign is one cold RunAll over a fresh store.
type campaign struct {
	res       []*blp.Result
	runner    *blp.Runner
	dir       string
	wall, cpu time.Duration
}

// runCampaign opens a fresh store under e.work, runs the campaign on a
// new Runner, and closes the store. The wall time covers opening the
// store through closing it. The caller removes c.dir.
func runCampaign(e *env, t *tracer, opts []blp.Options) (*campaign, error) {
	dir, err := os.MkdirTemp(e.work, "sweep-store-")
	if err != nil {
		return nil, err
	}
	c := &campaign{dir: dir}
	op := t.newOp()
	root := t.begin("campaign", op, 0)
	t0, c0 := time.Now(), cpuTime()
	st, err := blp.OpenStore(dir, 0)
	if err != nil {
		return c, err
	}
	c.runner = blp.NewRunnerStore(e.nproc, blp.DefaultCacheBudget, st)
	var runErr error
	t.do("blp.Runner.RunAll", op, root, func() { c.res, runErr = c.runner.RunAll(opts) })
	closeErr := st.Close()
	c.wall, c.cpu = time.Since(t0), cpuTime()-c0
	t.end(root)
	if runErr != nil {
		return c, runErr
	}
	return c, closeErr
}

// liveResults runs every configuration with a fresh serial blp.Run, jobs
// at a time, for the cross-path check.
func liveResults(opts []blp.Options, jobs int, errs *errList) []*blp.Result {
	res := make([]*blp.Result, len(opts))
	failures := make([]error, len(opts))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res[i], failures[i] = blp.Run(opts[i])
			}
		}()
	}
	for i := range opts {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range failures {
		if err != nil {
			errs.addf("live reference: %s: %v", describe(opts[i]), err)
		}
	}
	return res
}

func (st *sweepState) measure(e *env) (*outcome, error) {
	opts, labels := st.opts, labelsOf(st.opts)
	out := &outcome{}
	var errs errList
	if e.tr != nil {
		m, err := traceSweep(e, st, out, &errs)
		out.metrics, out.checkErr = m, errs.err()
		return out, err
	}

	var rounds [][]*blp.Result
	var walls, cpus, rss []float64
	for moreRounds(walls, e.seconds) {
		settle()
		c, err := runCampaign(e, nil, opts)
		rss = append(rss, peakRSSMB())
		if c != nil && c.dir != "" {
			os.RemoveAll(c.dir)
		}
		out.attempted += len(opts)
		if err != nil {
			out.failed += countMissing(c)
			errs.addf("sweep campaign: %v", err)
			if c == nil || c.res == nil {
				break
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: sweep round %d: campaign in %.3fs, peak RSS %.1f MB\n", len(rounds), c.wall.Seconds(), rss[len(rss)-1])
		rounds = append(rounds, c.res)
		walls = append(walls, c.wall.Seconds())
		cpus = append(cpus, c.cpu.Seconds())
	}
	if len(rounds) == 0 {
		return nil, errs.err()
	}
	var committed float64
	for _, r := range rounds[0] {
		if r != nil {
			committed += float64(r.Stats.Committed)
		}
	}
	wall := median(walls)

	ref := liveResults(opts, e.nproc, &errs)
	for _, res := range rounds {
		sameResults(&errs, "sweep batched vs live", labels, ref, res)
	}
	out.checkErr = errs.err()
	out.metrics = map[string]float64{
		"peak_rss_mb": maxOf(rss),
		"minst_per_s": committed / median(cpus) / 1e6,
		"wall_s":      wall,
		"p50_ms":      wall * 1000,
		"rps":         float64(len(opts)) / wall,
	}
	return out, nil
}

// countMissing is how many of a failed campaign's results are absent.
func countMissing(c *campaign) int {
	if c == nil || c.res == nil {
		return len(sweepKernels) * len(sweepVariants)
	}
	n := 0
	for _, r := range c.res {
		if r == nil {
			n++
		}
	}
	return n
}

// traceSweep is the traced sweep run: one untraced campaign, one traced
// campaign (whose Runner and store supply the runner, memo and store
// metrics), then the same pipeline driven layer by layer — kernels.Build,
// trace.Capture, sim.RunBatch — and checked against the campaign.
func traceSweep(e *env, st *sweepState, out *outcome, errs *errList) (map[string]float64, error) {
	m := newLayerMetrics()
	m["kernels.build_s"] = st.buildS
	plain, err := runCampaign(e, nil, st.opts)
	if plain != nil {
		os.RemoveAll(plain.dir)
	}
	if err != nil {
		return nil, fmt.Errorf("sweep campaign: %w", err)
	}
	traced, err := runCampaign(e, e.tr, st.opts)
	if traced != nil {
		defer os.RemoveAll(traced.dir)
	}
	if err != nil {
		return nil, fmt.Errorf("sweep campaign: %w", err)
	}
	out.attempted += 2 * len(st.opts)
	m["bench.trace_overhead_s"] = traced.wall.Seconds() - plain.wall.Seconds()
	runnerCounts(m, traced.runner)
	objs, err := probeStore(e.tr, m, traced.dir, e.work)
	if err == nil {
		err = decodeTraces(e.tr, m, objs, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("sweep store probe: %w", err)
	}

	var captureTime, batch time.Duration
	var laneInsts float64
	per := len(sweepVariants)
	for k := range sweepKernels {
		op := e.tr.newOp()
		group := st.opts[k*per : (k+1)*per]
		w, err := build(e.tr, op, 0, group[0])
		if err != nil {
			return nil, err
		}
		tr, took, err := capture(e.tr, op, w)
		if err != nil {
			return nil, err
		}
		captureTime += took
		m["trace.records"] += float64(tr.Len())

		cfgs := make([]sim.Config, per)
		ws := make([]*sim.Workload, per)
		for i, o := range group {
			if cfgs[i], err = simConfigOf(o); err != nil {
				return nil, err
			}
			if ws[i], err = build(e.tr, op, 0, o); err != nil {
				return nil, err
			}
		}
		var res []*sim.Result
		var laneErrs []error
		t0 := time.Now()
		e.tr.do("sim.RunBatch", op, 0, func() { res, laneErrs = sim.RunBatch(tr, cfgs, ws) })
		batch += time.Since(t0)
		for i, o := range group {
			if laneErrs[i] != nil {
				errs.addf("sweep pipeline: %s: %v", describe(o), laneErrs[i])
				continue
			}
			samePipeline(errs, describe(o), traced.res[k*per+i], res[i])
			addCoreCounts(m, res[i])
			laneInsts += float64(res[i].Total.Committed)
		}
	}
	finishCoreRatios(m)
	m["trace.capture_s"] = captureTime.Seconds()
	m["trace.capture_ns_per_inst"] = ratio(float64(captureTime.Nanoseconds()), m["trace.records"])
	m["sim.batch_ns_per_inst"] = ratio(float64(batch.Nanoseconds()), laneInsts)
	m["sim.ns_per_cycle"] = ratio(float64(batch.Nanoseconds()), m["core.cycles"])

	ref := liveResults(st.opts, e.nproc, errs)
	sameResults(errs, "sweep batched vs live", labelsOf(st.opts), ref, traced.res)
	sameResults(errs, "sweep batched vs live", labelsOf(st.opts), ref, plain.res)
	return m, nil
}
