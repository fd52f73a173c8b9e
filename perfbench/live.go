package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	blp "repro"
)

// The live workload: every kernel at its default scale, baseline and
// best-sliced, each a fresh serial blp.Run. The timing model and the
// live emulator do nearly all the work; runner, trace, memo, store and
// serve are bypassed.

// liveConfigs are the 14 live runs for a seed.
func liveConfigs(seed uint64) []blp.Options {
	var opts []blp.Options
	for _, b := range blp.Benchmarks {
		for _, m := range []blp.SliceMode{blp.SliceNone, blp.BestMode(b)} {
			opts = append(opts, blp.Options{Benchmark: b, Mode: m, Seed: seed})
		}
	}
	return opts
}

// crossScaleDelta shrinks the inputs of the layer-by-layer cross-check,
// which has to show that the direct pipeline and blp.Run agree, not to
// take time; at this scale blp.Run's own cost is also a larger share of
// a run than at full scale.
const crossScaleDelta = -3

// overheadPairs is how many paired runs blp.overhead_s takes the median
// of, per configuration.
const overheadPairs = 7

// minScale is the smallest input scale every kernel accepts (tc's floor).
const minScale = 6

func scaled(b string, delta int) int {
	return max(blp.DefaultScale(b)+delta, minScale)
}

// buildAll builds every workload opts needs, each in a kernels.Build
// span under one "setup" span, and returns the host seconds it took.
func buildAll(t *tracer, opts []blp.Options) (float64, error) {
	root := t.begin("setup", t.newOp(), 0)
	defer t.end(root)
	t0 := time.Now()
	for _, o := range opts {
		if _, err := build(t, t.newOp(), root, o); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

type liveState struct {
	opts   []blp.Options
	buildS float64
}

func setupLive(e *env) (workload, error) {
	opts := liveConfigs(e.seed)
	s, err := buildAll(e.tr, opts)
	if err != nil {
		return nil, err
	}
	return &liveState{opts, s}, nil
}

// liveRound is one pass over the configurations: each run's result and
// host CPU time in milliseconds, and the pass's wall time.
type liveRound struct {
	res       []*blp.Result
	cpuMS     []float64
	wall      time.Duration
	committed float64
	failed    int
}

// runLiveRound runs every configuration once, in order, each blp.Run in
// a span when t is non-nil.
func runLiveRound(t *tracer, opts []blp.Options, errs *errList) liveRound {
	r := liveRound{res: make([]*blp.Result, len(opts))}
	t0 := time.Now()
	for i, o := range opts {
		var err error
		c0 := cpuTime()
		t.do("blp.Run", t.newOp(), 0, func() { r.res[i], err = blp.Run(o) })
		r.cpuMS = append(r.cpuMS, float64((cpuTime()-c0).Nanoseconds())/1e6)
		if err != nil {
			r.failed++
			errs.addf("live: %s: %v", describe(o), err)
			continue
		}
		r.committed += float64(r.res[i].Stats.Committed)
	}
	r.wall = time.Since(t0)
	return r
}

func labelsOf(opts []blp.Options) []string {
	l := make([]string, len(opts))
	for i, o := range opts {
		l[i] = describe(o)
	}
	return l
}

func (st *liveState) measure(e *env) (*outcome, error) {
	opts, labels := st.opts, labelsOf(st.opts)
	out := &outcome{}
	var errs errList
	if e.tr != nil {
		out.metrics = traceLive(e, st, out, &errs)
		out.checkErr = errs.err()
		return out, nil
	}

	// A blp.Run is single-threaded, so it is timed in host CPU time,
	// which equals its wall time on a dedicated host but leaves out the
	// time a shared virtual machine was descheduled. Each configuration's
	// time is the median over rounds, which sets aside a round slowed by
	// a burst of load from other processes; the round-level metrics are
	// derived from the sum of those medians.
	var first []*blp.Result
	var walls, rss []float64
	perConfig := make([][]float64, len(opts))
	for moreRounds(walls, e.seconds) {
		settle()
		r := runLiveRound(nil, opts, &errs)
		rss = append(rss, peakRSSMB())
		fmt.Fprintf(os.Stderr, "perfbench: live round %d: %d runs in %.3fs (wall), peak RSS %.1f MB\n", len(walls), len(opts), r.wall.Seconds(), rss[len(rss)-1])
		out.attempted += len(opts)
		out.failed += r.failed
		walls = append(walls, r.wall.Seconds())
		for i, ms := range r.cpuMS {
			perConfig[i] = append(perConfig[i], ms)
		}
		if first == nil {
			first = r.res
		} else {
			sameResults(&errs, "live round repeat", labels, first, r.res)
		}
	}
	var roundS, committed float64
	configMS := make([]float64, len(opts))
	for i := range opts {
		configMS[i] = median(perConfig[i])
		roundS += configMS[i] / 1000
		if first[i] != nil {
			committed += float64(first[i].Stats.Committed)
		}
	}

	crossCheck(opts, 1, &errs)
	out.checkErr = errs.err()
	out.metrics = map[string]float64{
		"peak_rss_mb": maxOf(rss),
		"minst_per_s": committed / roundS / 1e6,
		"wall_s":      roundS,
		"p50_ms":      median(configMS),
		"rps":         float64(len(opts)) / roundS,
	}
	return out, nil
}

// crossCheck runs every configuration at the cross-check scale pairs
// times through blp.Run and through its layer-by-layer twin
// (kernels.Build + sim.Run), alternating which runs first, and checks
// that each pair agrees. It returns blp.Run's own cost over one pass of
// the configurations, in host seconds: per configuration, the median
// over pairs of blp.Run's wall time minus the twin's build and sim.Run
// time.
func crossCheck(opts []blp.Options, pairs int, errs *errList) float64 {
	var total float64
	for _, o := range opts {
		o.Scale = scaled(o.Benchmark, crossScaleDelta)
		var diffs []float64
		for i := 0; i < pairs; i++ {
			var want *blp.Result
			var took time.Duration
			var d *directResult
			var err, derr error
			viaBLP := func() {
				t0 := time.Now()
				want, err = blp.Run(o)
				took = time.Since(t0)
			}
			direct := func() { d, derr = runDirect(nil, 0, 0, o, nil) }
			if i%2 == 0 {
				viaBLP()
				direct()
			} else {
				direct()
				viaBLP()
			}
			if err := errors.Join(err, derr); err != nil {
				errs.addf("live cross-check: %s: %v", describe(o), err)
				break
			}
			samePipeline(errs, describe(o), want, d.res)
			diffs = append(diffs, (took - d.build - d.simul).Seconds())
		}
		total += median(diffs)
	}
	return total
}

// traceLive is the traced live run: one untraced round, the same round
// with every blp.Run in a span, then each configuration driven layer by
// layer (kernels.Build, sim.Run) and checked against blp.Run, and the
// paired cross-check for blp.overhead_s.
func traceLive(e *env, st *liveState, out *outcome, errs *errList) map[string]float64 {
	m := newLayerMetrics()
	m["kernels.build_s"] = st.buildS
	plain := runLiveRound(nil, st.opts, errs)
	traced := runLiveRound(e.tr, st.opts, errs)
	out.attempted += 2 * len(st.opts)
	out.failed += plain.failed + traced.failed
	m["bench.trace_overhead_s"] = traced.wall.Seconds() - plain.wall.Seconds()
	sameResults(errs, "live round repeat", labelsOf(st.opts), plain.res, traced.res)

	var simNS, mallocs float64
	for i, o := range st.opts {
		d, err := runDirect(e.tr, e.tr.newOp(), 0, o, nil)
		if err != nil {
			errs.addf("live pipeline: %v", err)
			continue
		}
		samePipeline(errs, describe(o), traced.res[i], d.res)
		addCoreCounts(m, d.res)
		simNS += float64(d.simul.Nanoseconds())
		mallocs += float64(d.mallocs)
	}
	finishCoreRatios(m)
	m["sim.live_ns_per_inst"] = ratio(simNS, m["core.committed"])
	m["sim.allocs_per_kinst"] = ratio(1000*mallocs, m["core.committed"])
	m["sim.ns_per_cycle"] = ratio(simNS, m["core.cycles"])
	m["blp.overhead_s"] = crossCheck(st.opts, overheadPairs, errs)
	return m
}
