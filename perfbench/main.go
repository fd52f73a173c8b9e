// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the public APIs of blp, internal/kernels,
// internal/trace, internal/sim, internal/store and internal/serve from
// outside, times each call into a layer, and checks every result it
// times. It never changes program code.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench --workload live|sweep|serve --seed N --seconds S --trace 0|1 --workdir DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from spans recorded around every layer call (see span.go). Diagnostics
// go to standard error.
//
// Every number is either host time (what the simulator costs to run) or
// simulated (modelled cycles and instructions); README.md labels each.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is one measured run's settings and its shared state.
type env struct {
	seed    uint64
	seconds float64
	nproc   int
	// work is the run's private scratch directory; every store the run
	// opens lives under it and it is removed when the run ends.
	work string
	// tr records spans; nil in an untraced run, and every tracer method
	// is a no-op on nil.
	tr *tracer
}

// outcome is what a workload reports: operations attempted and failed,
// whether its outputs passed the check (and why not), and its metrics.
type outcome struct {
	attempted, failed int
	checkErr          error
	metrics           map[string]float64
}

// workload is a set-up workload, ready for its measured phase.
type workload interface {
	measure(e *env) (*outcome, error)
}

// workloads set up each workload by name.
var workloads = map[string]func(e *env) (workload, error){
	"live":  setupLive,
	"sweep": setupSweep,
	"serve": setupServe,
}

// setupRuns is how many cold set-ups setup_s is the median of: the run's
// own, plus setupRuns-1 in fresh child processes (kernels.Build memoizes
// for the whole process, so a second set-up in one process measures
// nothing).
const setupRuns = 3

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "", "workload: live, sweep or serve")
		seed      = flag.Uint64("seed", 1, "input seed (RMAT/data instance and request order)")
		seconds   = flag.Float64("seconds", 10, "measured time per run, in host seconds")
		traceFlag = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		workdir   = flag.String("workdir", "", "directory for temporary stores (required)")
		setupOnly = flag.Bool("setup-only", false, "run set-up alone and print its host CPU seconds (child mode)")
	)
	flag.Parse()
	setup, ok := workloads[*workload]
	if !ok || *workdir == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload live|sweep|serve --seed N --seconds S --trace 0|1 --workdir DIR")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := &env{seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(), work: work}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}

	c0 := cpuTime()
	w, err := setup(e)
	setupS := (cpuTime() - c0).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	if *setupOnly {
		if c, ok := w.(interface{ close() error }); ok {
			if err := c.close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: setup teardown:", err)
				return 1
			}
		}
		fmt.Println(strconv.FormatFloat(setupS, 'g', -1, 64))
		return 0
	}
	setups := []float64{setupS}
	if e.tr == nil {
		more, err := childSetups(setupRuns - 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			return 1
		}
		setups = append(setups, more...)
	}

	out, err := w.measure(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if out.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check FAILED:", out.checkErr)
	}
	if e.tr == nil {
		out.metrics["setup_s"] = median(setups)
	} else if path, err := e.tr.writeTo(*workdir, *workload, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		e.tr.summarize(os.Stderr)
	}
	return report(e.tr != nil, out)
}

// childSetups runs set-up alone in n fresh processes of this binary, one
// after another, and returns each one's set-up CPU time as the child
// measured it (process start-up is excluded).
func childSetups(n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"--setup-only"}, os.Args[1:]...)
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child set-up: %w", err)
		}
		v, err := strconv.ParseFloat(lastLine(b), 64)
		if err != nil {
			return nil, fmt.Errorf("child set-up output: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// report prints the result line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
func report(traced bool, out *outcome) int {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	metrics := make(map[string]jsonMetric, len(specs))
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", s.name)
			return 1
		}
		metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.checkErr == nil && out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cpuTime is the CPU time this process has used so far, user and system,
// over all its threads. Unlike wall time it leaves out the time a shared
// virtual machine's CPUs were descheduled by the host (steal).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle starts a measured round from the same memory state every time:
// it collects the previous round's garbage, returns the freed memory to
// the operating system, and restarts the kernel's record of this
// process's peak resident memory, so the next peakRSSMB covers only the
// round. Where /proc/self/clear_refs is unavailable the peak covers the
// whole process instead.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is this process's peak resident memory since the last
// settle (or since it started), in MiB.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// moreRounds reports whether to start another measured round, given the
// host seconds of the rounds so far: rounds run until their total reaches
// seconds, and a round that would end further past that than it would
// end short of it is not started.
func moreRounds(walls []float64, seconds float64) bool {
	if len(walls) == 0 {
		return true
	}
	var total float64
	for _, w := range walls {
		total += w
	}
	return total+total/float64(len(walls))/2 < seconds
}

// maxOf returns the largest of xs (0 for none).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (a layer the workload did not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// errList collects check failures; nil when empty.
type errList []error

func (l *errList) addf(format string, args ...any) { *l = append(*l, fmt.Errorf(format, args...)) }

func (l errList) err() error {
	if len(l) == 0 {
		return nil
	}
	const show = 5
	if len(l) > show {
		return fmt.Errorf("%w (and %d more)", errors.Join(l[:show]...), len(l)-show)
	}
	return errors.Join(l...)
}
