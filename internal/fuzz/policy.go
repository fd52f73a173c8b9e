package fuzz

import (
	"bytes"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/sim"
)

// RunPolicy is the policy-equivalence oracle leg: it runs the case under
// the recovery policy named by c.Cfg.Policy, event-driven and forced
// cycle-accurate, and checks
//
//   - both runs finish (no watchdog hang, no panic, quiescent machine),
//   - both final memory images equal the reference image,
//   - both commit exactly the reference instruction count,
//   - the two stepping styles produce byte-identical results,
//   - a degenerate parameterization is byte-identical to its legacy leg:
//     "selective" to the sel leg, and "conventional", "partial:inf",
//     partial at a depth of at least the ROB size, and "throttle:0" to
//     the conv leg (when legacy is non-nil).
//
// legacy is RunCase's results map ("sel"/"ca"/"conv"); pass nil to skip
// the identity checks (the conformance suite builds its own pairs).
func RunPolicy(c *Case, refMem []byte, wantCommits uint64, legacy map[string]*sim.Result) *Violation {
	spec, err := core.ParsePolicy(c.Cfg.Policy)
	if err != nil {
		return violationf("policy-parse", "%s: %v", c.Name, err)
	}
	if spec.Kind == core.PolicyAuto {
		return violationf("policy-parse", "%s: policy leg needs an explicit policy, got %q",
			c.Name, c.Cfg.Policy)
	}

	variants := []struct {
		key        string
		cycleAccur bool
	}{
		{"policy", false},
		{"policy-ca", true},
	}
	results := make(map[string]*sim.Result, len(variants))
	for _, vr := range variants {
		res, mem, err := runPolicySim(c, spec, vr.cycleAccur)
		if err != nil {
			return violationf(vr.key+"-run", "%s [%s]: %v", c.Name, spec, err)
		}
		if !bytes.Equal(mem, refMem) {
			i := firstDiff(mem, refMem)
			return violationf("mem-"+vr.key,
				"%s [%s]: final memory diverges from reference at byte %#x (got %#x want %#x)",
				c.Name, spec, i, mem[i], refMem[i])
		}
		if res.Total.Committed != wantCommits {
			return violationf("commit-"+vr.key,
				"%s [%s]: committed %d instructions, reference executed %d (non-marker)",
				c.Name, spec, res.Total.Committed, wantCommits)
		}
		results[vr.key] = res
	}

	if !reflect.DeepEqual(*results["policy"], *results["policy-ca"]) {
		return violationf("policy-ca-equiv",
			"%s [%s]: event-driven and cycle-accurate policy runs diverge: %s",
			c.Name, spec, diffResults(results["policy"], results["policy-ca"]))
	}

	if legacy != nil {
		if twin := degenerateTwin(spec, c.Cfg.ROBSize); twin != "" {
			if !reflect.DeepEqual(*results["policy"], *legacy[twin]) {
				return violationf("policy-identity",
					"%s: policy %s must be byte-identical to the %s leg: %s",
					c.Name, spec, twin, diffResults(results["policy"], legacy[twin]))
			}
		}
	}
	return nil
}

// degenerateTwin names the legacy leg a policy spec must be byte-identical
// to on a machine with robSize ROB entries, or "" when the spec is a
// genuinely new machine.
func degenerateTwin(spec core.PolicySpec, robSize int) string {
	switch {
	case spec.Kind == core.PolicySelective:
		return "sel"
	case spec.Kind == core.PolicyConventional:
		return "conv"
	case spec.Kind == core.PolicyPartial && (spec.Depth == 0 || spec.Depth >= robSize):
		return "conv" // no more victims than the depth: all released at resolution
	case spec.Kind == core.PolicyThrottle && spec.Conf == 0:
		return "conv" // a threshold of 0 never gates fetch
	}
	return ""
}

// runPolicySim is runSim for the policy leg.
func runPolicySim(c *Case, spec core.PolicySpec, cycleAccurate bool) (res *sim.Result, mem []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	mem = append([]byte(nil), c.Mem...)
	w := &sim.Workload{Name: c.Name, Progs: c.Progs, Mem: mem}
	res, err = sim.Run(c.Cfg.policySimConfig(spec, cycleAccurate), w)
	return res, mem, err
}
