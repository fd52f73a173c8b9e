package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Recovery-policy matrix: the mispredict-recovery path is pluggable
// behind RecoveryPolicy. The paper's selective flush and the classic
// conventional full flush are the two bit-exact legacy policies; the
// matrix adds a staged partial flush (the "flush less than everything"
// idiom) and confidence-gated fetch throttling, so the reproduction
// doubles as a comparison lab over the recovery design space.
//
// Contract (what a policy may and may not touch):
//
//   - SelectiveEligible is consulted once at construction and cached;
//     it gates the §4.2 machinery (miss segments, FRQ, reservation
//     tiers). Only the selective policy returns true; every other
//     policy sees mispredictions only at resolution, with no missInfo
//     attached.
//   - Recover runs at branch resolution (complete stage) for every
//     mispredicted correct-path branch that is not handled by the
//     selective/resolve-path mechanism. It must train the predictor
//     (pred.Resolve) and repair the window so that, eventually, only
//     uops logically older than the branch remain; any staging must
//     keep the branch linked as the commit-order boundary (drainHold)
//     until the repair completes, and must announce per-cycle work via
//     Core.draining so the event-driven driver never skips over it.
//   - The optional fetchHooks extension observes correct-path branch
//     fetch/resolution and may narrow the fetch width; implementations
//     must be deterministic pure functions of core/thread state.
//   - Every policy must leave the machine quiescent: CheckQuiescent and
//     the uop conservation law hold at the end of every run, and the
//     differential fuzz oracles (final memory ≡ emulator, exact commit
//     counts, watchdog) apply unchanged. New policies are registered in
//     the table below and automatically enter the conformance matrix.
const (
	// PolicyAuto (the zero value) follows the legacy SelectiveFlush
	// switch: selective when it is set, conventional otherwise.
	PolicyAuto         = ""
	PolicySelective    = "selective"
	PolicyConventional = "conventional"
	PolicyPartial      = "partial"
	PolicyThrottle     = "throttle"
)

// PolicySpec names a recovery policy and its parameters. The zero value
// is PolicyAuto. Canonical spellings: "selective", "conventional",
// "partial:<depth>" ("partial:inf" for unbounded), "throttle:<conf>".
type PolicySpec struct {
	Kind string
	// Depth (partial only) is the number of victims squashed per cycle,
	// and equally the distance from the branch flushed at resolution;
	// 0 means unbounded (≡ conventional).
	Depth int
	// Conf (throttle only) is the confidence threshold in [0, 4]:
	// fetched branches predicted with confidence < Conf gate fetch to
	// one instruction per cycle until they resolve. 0 never gates
	// (≡ conventional); TAGE u-bits saturate at 3, so 4 gates on every
	// branch.
	Conf int
}

// ParsePolicy parses a policy string ("", "selective", "partial:16",
// "throttle:2", ...). The empty string is PolicyAuto.
func ParsePolicy(s string) (PolicySpec, error) {
	if s == "" || s == "auto" {
		return PolicySpec{}, nil
	}
	kind, arg := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		kind, arg = s[:i], s[i+1:]
		if arg == "" {
			return PolicySpec{}, fmt.Errorf("core: recovery policy %q: empty parameter after ':'", s)
		}
	}
	def, ok := policyDefs[kind]
	if !ok {
		return PolicySpec{}, fmt.Errorf("core: unknown recovery policy %q (kinds: %s)",
			s, strings.Join(RegisteredPolicies(), ", "))
	}
	spec, err := def.parse(arg)
	if err != nil {
		return PolicySpec{}, fmt.Errorf("core: recovery policy %q: %w", s, err)
	}
	spec.Kind = kind
	return spec, nil
}

// String returns the canonical spelling (ParsePolicy(p.String()) == p).
func (p PolicySpec) String() string {
	switch p.Kind {
	case PolicyAuto:
		return "auto"
	case PolicyPartial:
		if p.Depth <= 0 {
			return "partial:inf"
		}
		return fmt.Sprintf("partial:%d", p.Depth)
	case PolicyThrottle:
		return fmt.Sprintf("throttle:%d", p.Conf)
	}
	return p.Kind
}

// Validate checks the spec's kind and parameter ranges.
func (p PolicySpec) Validate() error {
	switch p.Kind {
	case PolicyAuto, PolicySelective, PolicyConventional:
		if p.Depth != 0 || p.Conf != 0 {
			return fmt.Errorf("core: recovery policy %q takes no parameters", p.Kind)
		}
	case PolicyPartial:
		if p.Depth < 0 {
			return fmt.Errorf("core: partial flush depth %d must be >= 0 (0 = unbounded)", p.Depth)
		}
		if p.Conf != 0 {
			return fmt.Errorf("core: partial takes no confidence parameter")
		}
	case PolicyThrottle:
		if p.Conf < 0 || p.Conf > 4 {
			return fmt.Errorf("core: throttle confidence %d out of range [0, 4]", p.Conf)
		}
		if p.Depth != 0 {
			return fmt.Errorf("core: throttle takes no depth parameter")
		}
	default:
		return fmt.Errorf("core: unknown recovery policy kind %q (kinds: %s)",
			p.Kind, strings.Join(RegisteredPolicies(), ", "))
	}
	return nil
}

// effective resolves PolicyAuto against the legacy SelectiveFlush
// switch; the zero spec preserves pre-policy behavior exactly.
func (p PolicySpec) effective(selectiveFlush bool) PolicySpec {
	if p.Kind != PolicyAuto {
		return p
	}
	if selectiveFlush {
		return PolicySpec{Kind: PolicySelective}
	}
	return PolicySpec{Kind: PolicyConventional}
}

// RecoveryPolicy decides how a mispredicted branch repairs the machine.
// See the contract at the top of this file.
type RecoveryPolicy interface {
	// Name is the canonical policy spelling.
	Name() string
	// SelectiveEligible reports whether in-slice mispredictions may use
	// the §4.2 selective mechanism (miss detection, FRQ, reservation).
	SelectiveEligible() bool
	// Recover repairs the window for resolved mispredicted branch u.
	Recover(c *Core, t *thread, u *uop)
}

// fetchHooks is the optional fetch-side extension of RecoveryPolicy.
// Core caches the assertion result (Core.polFetch); policies without it
// cost nothing on the fetch path.
type fetchHooks interface {
	// OnFetchBranch observes a correct-path conditional branch right
	// after prediction (u.pred is populated).
	OnFetchBranch(c *Core, t *thread, u *uop)
	// OnBranchResolved observes every correct-path branch resolution,
	// mispredicted or not, before recovery runs.
	OnBranchResolved(c *Core, t *thread, u *uop)
	// FetchWidth returns this cycle's fetch width for thread t.
	FetchWidth(c *Core, t *thread) int
}

// policyDef is one registry entry: parameter parsing, construction, and
// the representative parameterizations the conformance suite runs.
type policyDef struct {
	parse       func(arg string) (PolicySpec, error)
	build       func(spec PolicySpec) RecoveryPolicy
	conformance func(robSize int) []PolicySpec
}

var policyDefs = map[string]policyDef{}

func registerPolicy(kind string, def policyDef) {
	if _, dup := policyDefs[kind]; dup {
		panic("core: duplicate recovery policy " + kind)
	}
	policyDefs[kind] = def
}

// RegisteredPolicies returns the known policy kinds, sorted.
func RegisteredPolicies() []string {
	kinds := make([]string, 0, len(policyDefs))
	for k := range policyDefs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ConformanceMatrix returns representative parameterizations of every
// registered policy for a machine with the given ROB size — the rows of
// the differential conformance suite. A policy registered without an
// entry here cannot exist: registration requires a conformance func.
func ConformanceMatrix(robSize int) []PolicySpec {
	var out []PolicySpec
	for _, kind := range RegisteredPolicies() {
		out = append(out, policyDefs[kind].conformance(robSize)...)
	}
	return out
}

func noArg(arg string) (PolicySpec, error) {
	if arg != "" {
		return PolicySpec{}, fmt.Errorf("takes no parameter (got %q)", arg)
	}
	return PolicySpec{}, nil
}

func init() {
	registerPolicy(PolicySelective, policyDef{
		parse: noArg,
		build: func(PolicySpec) RecoveryPolicy { return selectivePolicy{} },
		conformance: func(int) []PolicySpec {
			return []PolicySpec{{Kind: PolicySelective}}
		},
	})
	registerPolicy(PolicyConventional, policyDef{
		parse: noArg,
		build: func(PolicySpec) RecoveryPolicy { return conventionalPolicy{} },
		conformance: func(int) []PolicySpec {
			return []PolicySpec{{Kind: PolicyConventional}}
		},
	})
	registerPolicy(PolicyPartial, policyDef{
		parse: func(arg string) (PolicySpec, error) {
			if arg == "" || arg == "inf" {
				return PolicySpec{}, nil // Depth 0 = unbounded
			}
			d, err := strconv.Atoi(arg)
			if err != nil || d < 0 {
				return PolicySpec{}, fmt.Errorf("depth must be a non-negative integer or \"inf\" (got %q)", arg)
			}
			return PolicySpec{Depth: d}, nil
		},
		build: func(s PolicySpec) RecoveryPolicy { return partialPolicy{depth: s.Depth} },
		conformance: func(robSize int) []PolicySpec {
			mid := robSize / 2
			if mid < 2 {
				mid = 2
			}
			return []PolicySpec{
				{Kind: PolicyPartial, Depth: 1},
				{Kind: PolicyPartial, Depth: mid},
				{Kind: PolicyPartial, Depth: robSize}, // bounded, yet never parks ≡ conventional
				{Kind: PolicyPartial},                 // unbounded ≡ conventional
			}
		},
	})
	registerPolicy(PolicyThrottle, policyDef{
		parse: func(arg string) (PolicySpec, error) {
			if arg == "" {
				return PolicySpec{Conf: 2}, nil
			}
			c, err := strconv.Atoi(arg)
			if err != nil || c < 0 || c > 4 {
				return PolicySpec{}, fmt.Errorf("confidence must be an integer in [0, 4] (got %q)", arg)
			}
			return PolicySpec{Conf: c}, nil
		},
		build: func(s PolicySpec) RecoveryPolicy { return throttlePolicy{conf: uint8(s.Conf)} },
		conformance: func(int) []PolicySpec {
			return []PolicySpec{
				{Kind: PolicyThrottle, Conf: 0}, // never gates ≡ conventional
				{Kind: PolicyThrottle, Conf: 2},
				{Kind: PolicyThrottle, Conf: 4}, // gates on every unresolved branch
			}
		},
	})
}

// newPolicy resolves and builds the configured policy.
func newPolicy(cfg *Config) (RecoveryPolicy, error) {
	if err := cfg.Recovery.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.Recovery.effective(cfg.SelectiveFlush)
	return policyDefs[spec.Kind].build(spec), nil
}

// selectivePolicy is the paper's mechanism (§4.2). In-slice misses are
// handled by resolveSelective before Recover is consulted; Recover sees
// only out-of-slice and FRQ-overflow branches, which flush fully.
type selectivePolicy struct{}

func (selectivePolicy) Name() string            { return PolicySelective }
func (selectivePolicy) SelectiveEligible() bool { return true }
func (selectivePolicy) Recover(c *Core, t *thread, u *uop) {
	c.resolveFlush(t, u, 0)
}

// conventionalPolicy recovers every misprediction with a full flush.
type conventionalPolicy struct{}

func (conventionalPolicy) Name() string            { return PolicyConventional }
func (conventionalPolicy) SelectiveEligible() bool { return false }
func (conventionalPolicy) Recover(c *Core, t *thread, u *uop) {
	c.resolveFlush(t, u, 0)
}

// partialPolicy flushes the depth victims nearest the branch at
// resolution and drains the rest out of the window at depth per cycle
// (partialFlush) — the staged squash of a hardware walker that can only
// reclaim a few entries per cycle. Depth 0 is unbounded and therefore
// byte-identical to conventional, as is any depth of at least the ROB
// size: the walk never finds more victims than that, so it parks none.
type partialPolicy struct{ depth int }

func (p partialPolicy) Name() string            { return PolicySpec{Kind: PolicyPartial, Depth: p.depth}.String() }
func (p partialPolicy) SelectiveEligible() bool { return false }
func (p partialPolicy) Recover(c *Core, t *thread, u *uop) {
	c.resolveFlush(t, u, p.depth)
}

// throttlePolicy recovers conventionally but gates fetch to one
// instruction per cycle while any low-confidence branch is unresolved
// (Ramachandran & Johnson-style fetch throttling). Confidence comes
// from the predictor's Pred.Conf (TAGE u-bits; counter saturation for
// the simpler predictors). Conf 0 never gates and is byte-identical to
// conventional.
type throttlePolicy struct{ conf uint8 }

func (p throttlePolicy) Name() string {
	return PolicySpec{Kind: PolicyThrottle, Conf: int(p.conf)}.String()
}
func (p throttlePolicy) SelectiveEligible() bool { return false }
func (p throttlePolicy) Recover(c *Core, t *thread, u *uop) {
	c.resolveFlush(t, u, 0)
}

func (p throttlePolicy) OnFetchBranch(c *Core, t *thread, u *uop) {
	if u.pred.Conf < p.conf {
		u.lowConf = true
		t.lowConfOut++
	}
}

func (p throttlePolicy) OnBranchResolved(c *Core, t *thread, u *uop) {
	if u.lowConf {
		u.lowConf = false
		t.lowConfOut--
	}
}

func (p throttlePolicy) FetchWidth(c *Core, t *thread) int {
	if t.lowConfOut > 0 {
		c.stats.ThrottledCycles++
		return 1
	}
	return c.cfg.FetchWidth
}
