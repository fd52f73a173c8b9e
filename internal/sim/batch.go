package sim

import (
	"fmt"
	"sync"

	"repro/internal/emu"
	"repro/internal/trace"
)

// RunBatch simulates len(cfgs) single-hardware-thread timing
// configurations over one shared captured trace. Each record of the trace
// is decoded exactly once (trace.Batch) and fanned out to a per-config
// view; the lanes run concurrently, one goroutine each, paced by the
// batch's ring window so the stream is consumed as a narrow moving front.
// Each lane's result is byte-identical to
// Run(cfgs[i] with Replay=tr, ws[i]), itself a batch of one — the lanes
// share decode work, nothing architectural: a lane's simulation depends
// only on the immutable record stream and its own state, and its wrong
// paths fork live shadows from its own view.
//
// Lanes are independent: results[i] and errs[i] report lane i alone, and
// one lane failing (watchdog, MaxCycles, cancellation) does not abort the
// others — it detaches from the ring window and the rest continue. Every
// workload must carry its own memory image; every config must have
// exactly one hardware thread and CheckIndependence off (the same
// restrictions as Config.Replay).
func RunBatch(tr *trace.Trace, cfgs []Config, ws []*Workload) ([]*Result, []error) {
	n := len(cfgs)
	results := make([]*Result, n)
	errs := make([]error, n)
	fail := func(err error) ([]*Result, []error) {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return results, errs
	}
	if len(ws) != n {
		return fail(fmt.Errorf("sim: RunBatch got %d configs for %d workloads", n, len(ws)))
	}
	if n == 0 {
		return results, errs
	}
	if tr == nil {
		return fail(fmt.Errorf("sim: RunBatch requires a trace"))
	}

	// The shared decoder needs one program; every lane must agree with it
	// (for one trace key they are rebuilt per config but identical).
	prog := ws[0].Progs[0]
	b, err := trace.NewBatch(tr, prog)
	if err != nil {
		return fail(err)
	}

	type blane struct {
		l    *lane
		view *trace.Replay
	}
	lanes := make([]*blane, n)
	for i := range cfgs {
		w := ws[i]
		if t := cfgs[i].Cores * cfgs[i].Core.SMT; t != 1 {
			errs[i] = fmt.Errorf("sim: workload %s: batched replay supports exactly one hardware thread, got %d",
				w.Name, t)
			continue
		}
		if cfgs[i].CheckIndependence {
			errs[i] = fmt.Errorf("sim: workload %s: batched replay is incompatible with CheckIndependence",
				w.Name)
			continue
		}
		if len(w.Progs) != 1 || w.Progs[0].Name != prog.Name || len(w.Progs[0].Code) != len(prog.Code) {
			errs[i] = fmt.Errorf("sim: workload %s: program does not match the batch trace", w.Name)
			continue
		}
		view := b.NewView(w.Mem)
		cfg := cfgs[i]
		cfg.Replay = nil // the view is the frontend; avoid double validation
		l, err := newLane(cfg, w, []emu.Frontend{view})
		if err != nil {
			errs[i] = err
			b.Drop(view)
			continue
		}
		lanes[i] = &blane{l: l, view: view}
	}

	// One goroutine per lane; a lane that retires (finished or failed)
	// drops its view so it stops bounding the others' window. results[i]
	// and errs[i] are written by exactly one goroutine each.
	var wg sync.WaitGroup
	for i, bl := range lanes {
		if bl == nil {
			continue
		}
		wg.Add(1)
		go func(i int, bl *blane) {
			defer wg.Done()
			defer b.Drop(bl.view)
			for {
				finished, err := bl.l.step()
				if err != nil {
					errs[i] = err
					return
				}
				if finished {
					results[i], errs[i] = bl.l.finish()
					return
				}
			}
		}(i, bl)
	}
	wg.Wait()
	return results, errs
}
