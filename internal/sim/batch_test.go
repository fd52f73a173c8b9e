package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// batchSweepConfigs is a small heterogeneous sweep: configurations that
// mispredict differently (predictor), flush differently (selective
// flush), and stall differently (ROB), so the lanes' trace cursors and
// wrong-path forks drift apart — the scheduling and segment-sharing cases
// RunBatch must keep byte-identical to serial replay.
func batchSweepConfigs(sliced bool) []Config {
	mk := func(tweak func(*Config)) Config {
		cfg := DefaultConfig()
		cfg.Core.SelectiveFlush = sliced
		cfg.CheckIndependence = false
		cfg.MaxCycles = 50_000_000
		if tweak != nil {
			tweak(&cfg)
		}
		return cfg
	}
	return []Config{
		mk(nil),
		mk(func(c *Config) { c.Core.Predictor = "oracle" }),
		mk(func(c *Config) { c.Core.ROBSize = 64 }),
		mk(func(c *Config) { c.Core.FRQSize = 2 }),
	}
}

// TestRunBatchMatchesSerialReplay is the batched-vs-serial equivalence
// pin: for every configuration in a mixed sweep, RunBatch's per-lane
// Result must equal the serial Run-with-Replay Result — a one-view
// batch — byte for byte, in both flush modes (the runs diverge in fork
// points, so each lane's wrong paths fork from its own view's state).
func TestRunBatchMatchesSerialReplay(t *testing.T) {
	for _, sliced := range []bool{false, true} {
		w := buildOddEven(2000, sliced, 42)
		capMem := append([]byte(nil), w.Mem...)
		tr, err := trace.Capture(context.Background(), w.Progs[0], capMem)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := batchSweepConfigs(sliced)

		// Serial reference: one replayed run per config, fresh workload each.
		serial := make([]*Result, len(cfgs))
		for i, cfg := range cfgs {
			cfg.Replay = tr
			wi := buildOddEven(2000, sliced, 42)
			res, err := Run(cfg, wi)
			if err != nil {
				t.Fatalf("serial replay config %d (sliced=%v): %v", i, sliced, err)
			}
			serial[i] = res
		}

		ws := make([]*Workload, len(cfgs))
		for i := range ws {
			ws[i] = buildOddEven(2000, sliced, 42)
		}
		results, errs := RunBatch(tr, cfgs, ws)
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("batch lane %d (sliced=%v): %v", i, sliced, errs[i])
			}
			if !reflect.DeepEqual(results[i], serial[i]) {
				t.Errorf("batch lane %d diverges from serial replay (sliced=%v):\nserial %+v\nbatch  %+v",
					i, sliced, serial[i].Total, results[i].Total)
			}
		}
	}
}

// TestRunBatchLaneIsolation: one lane failing (MaxCycles exhausted) must
// not disturb the others — they still finish with results identical to
// serial replay.
func TestRunBatchLaneIsolation(t *testing.T) {
	w := buildOddEven(500, true, 7)
	tr, err := trace.Capture(context.Background(), w.Progs[0], append([]byte(nil), w.Mem...))
	if err != nil {
		t.Fatal(err)
	}

	good := DefaultConfig()
	good.Core.SelectiveFlush = true
	good.CheckIndependence = false
	good.MaxCycles = 50_000_000
	bad := good
	bad.MaxCycles = 100 // fails long before the stream ends

	goodRef := good
	goodRef.Replay = tr
	want, err := Run(goodRef, buildOddEven(500, true, 7))
	if err != nil {
		t.Fatal(err)
	}

	results, errs := RunBatch(tr,
		[]Config{good, bad, good},
		[]*Workload{buildOddEven(500, true, 7), buildOddEven(500, true, 7), buildOddEven(500, true, 7)})
	if errs[1] == nil {
		t.Fatal("throttled lane should have exceeded MaxCycles")
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("lane %d diverges from serial replay after sibling failure", i)
		}
	}
}

// TestRunBatchRejectsMultiThread pins the gating at the batch layer.
func TestRunBatchRejectsMultiThread(t *testing.T) {
	w := buildOddEven(50, false, 1)
	tr, err := trace.Capture(context.Background(), w.Progs[0], append([]byte(nil), w.Mem...))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CheckIndependence = false
	cfg.Cores = 2
	_, errs := RunBatch(tr, []Config{cfg}, []*Workload{buildOddEven(50, false, 1)})
	if errs[0] == nil {
		t.Error("two-core lane should be rejected")
	}
	cfg = DefaultConfig()
	cfg.CheckIndependence = true
	_, errs = RunBatch(tr, []Config{cfg}, []*Workload{buildOddEven(50, false, 1)})
	if errs[0] == nil {
		t.Error("CheckIndependence lane should be rejected")
	}
}
