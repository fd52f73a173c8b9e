package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestDebugChecksParanoid runs sliced kernels with the core's per-cycle
// invariant checks on (segment accounting, and the cached oldest hole
// against a fresh scan) and with paranoid fast-forward, which steps every
// window the driver would skip and panics if a core does anything in it.
// Either check fails by panicking; the test turns that into a failure.
func TestDebugChecksParanoid(t *testing.T) {
	core.EnableDebugChecks(true)
	defer core.EnableDebugChecks(false)
	defer sim.SetParanoidFF(sim.SetParanoidFF(true))

	workloads := []kernels.Spec{
		{Kernel: "bc", Scale: 6, Mode: kernels.SliceInner},
		{Kernel: "bfs", Scale: 6, Mode: kernels.SliceOuter},
		{Kernel: "ms", Scale: 6, Mode: kernels.SliceOuter},
	}
	recoveries := []struct {
		name   string
		policy string
		frq    int
	}{
		{"selective", "selective", 0},
		{"conventional", "conventional", 0},
		{"partial:16", "partial:16", 0},
		{"selective-frq2", "selective", 2},
	}
	for _, spec := range workloads {
		for _, rc := range recoveries {
			t.Run(fmt.Sprintf("%s-%v/%s", spec.Kernel, spec.Mode, rc.name), func(t *testing.T) {
				w, err := kernels.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.DefaultConfig()
				cfg.Core.SelectiveFlush = true
				if cfg.Core.Recovery, err = core.ParsePolicy(rc.policy); err != nil {
					t.Fatal(err)
				}
				if rc.frq > 0 {
					cfg.Core.FRQSize = rc.frq
				}
				res, err := runRecovered(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if res.Total.Committed == 0 || res.Total.Mispredicts == 0 {
					t.Fatalf("run exercised nothing: committed=%d mispredicts=%d",
						res.Total.Committed, res.Total.Mispredicts)
				}
				if rc.policy == "selective" && res.Total.SliceRecoveries == 0 {
					t.Fatal("selective run made no selective recovery: the hole checks saw no holes")
				}
			})
		}
	}
}

// runRecovered is sim.Run with a panic from a debug check turned into an
// error, so one failing configuration does not end the whole test binary.
func runRecovered(cfg sim.Config, w *sim.Workload) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("debug check panicked: %v", r)
		}
	}()
	return sim.Run(cfg, w)
}
