package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	blp "repro"
)

// smallResults simulates two small configurations, the smallest inputs
// the kernels accept, so the check can be exercised in a unit test.
func smallResults(t *testing.T) ([]blp.Options, []*blp.Result) {
	t.Helper()
	opts := []blp.Options{
		{Benchmark: "ms", Mode: blp.SliceOuter, Scale: minScale, Policy: "partial:16"},
		{Benchmark: "bfs", Mode: blp.SliceNone, Scale: minScale, Predictor: "oracle"},
	}
	res := make([]*blp.Result, len(opts))
	for i, o := range opts {
		r, err := blp.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	return opts, res
}

// clone deep-copies a result through its persisted (gob) form.
func clone(t *testing.T, r *blp.Result) *blp.Result {
	t.Helper()
	out := new(blp.Result)
	if err := gob.NewDecoder(bytes.NewReader(resultBytes(r))).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// perturbations each change one field of one result.
var perturbations = map[string]func(*blp.Result){
	"Cycles":             func(r *blp.Result) { r.Cycles++ },
	"Stats.Committed":    func(r *blp.Result) { r.Stats.Committed++ },
	"Stats.DispWrong":    func(r *blp.Result) { r.Stats.DispWrong++ },
	"Stats.FlushedFull":  func(r *blp.Result) { r.Stats.FlushedFull++ },
	"Stats.StackMem":     func(r *blp.Result) { r.Stats.StackMem += 1e-9 },
	"PerCore.Committed":  func(r *blp.Result) { r.PerCore[0].Committed++ },
	"EnergyUseful":       func(r *blp.Result) { r.EnergyUseful *= 1.0000001 },
	"LLCMissRate":        func(r *blp.Result) { r.LLCMissRate += 1e-12 },
	"Stats.UopsSquashed": func(r *blp.Result) { r.Stats.UopsSquashed-- },
}

func TestCheckFailsOnPerturbedResult(t *testing.T) {
	opts, want := smallResults(t)
	labels := labelsOf(opts)

	var errs errList
	got := []*blp.Result{clone(t, want[0]), clone(t, want[1])}
	sameResults(&errs, "identical", labels, want, got)
	for i, r := range got {
		sameServed(&errs, labels[i], wireResult(r), want[i])
	}
	if err := errs.err(); err != nil {
		t.Fatalf("check failed on identical results: %v", err)
	}

	for name, perturb := range perturbations {
		t.Run(name, func(t *testing.T) {
			got := []*blp.Result{clone(t, want[0]), clone(t, want[1])}
			perturb(got[1])

			var errs errList
			sameResults(&errs, "cross-path", labels, want, got)
			if errs.err() == nil {
				t.Errorf("byte comparison passed with %s changed", name)
			}

			errs = nil
			sameServed(&errs, labels[1], wireResult(got[1]), want[1])
			if errs.err() == nil {
				t.Errorf("served-result comparison passed with %s changed", name)
			}
		})
	}
}

func TestServedCheckIgnoresWhitespaceOnly(t *testing.T) {
	_, want := smallResults(t)
	indented, err := json.MarshalIndent(json.RawMessage(wireResult(want[0])), "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var errs errList
	sameServed(&errs, "indented", indented, want[0])
	if err := errs.err(); err != nil {
		t.Fatalf("indentation alone failed the check: %v", err)
	}
}

func TestPipelineCheck(t *testing.T) {
	opts, want := smallResults(t)
	for i, o := range opts {
		d, err := runDirect(nil, 0, 0, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		var errs errList
		samePipeline(&errs, describe(o), want[i], d.res)
		if err := errs.err(); err != nil {
			t.Fatalf("direct pipeline disagrees with blp.Run: %v", err)
		}
		d.res.Total.ConvRecoveries++
		samePipeline(&errs, describe(o), want[i], d.res)
		if errs.err() == nil {
			t.Fatal("pipeline check passed with a changed stat")
		}
	}
}

func TestServeScriptIsSeeded(t *testing.T) {
	catalog, novel := serveCatalog(1), serveNovel(1)
	a, err := serveScript(1, catalog, novel)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := serveScript(1, catalog, novel)
	c, _ := serveScript(2, catalog, novel)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different scripts")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same script")
	}
	pairs := map[string]int{}
	for _, rq := range a {
		for _, o := range rq.opts {
			if o.Degree == novelDegree {
				pairs[o.TraceKey()]++
			}
		}
	}
	if len(pairs) != novelPairs {
		t.Fatalf("script holds %d novel workloads, want %d", len(pairs), novelPairs)
	}
	for tk, n := range pairs {
		if n != 2 {
			t.Errorf("novel workload %s appears %d times, want 2", tk, n)
		}
	}
	for _, o := range catalog {
		if withheld(o) && !requested(a, o.Key()) {
			t.Errorf("script never asks for withheld %s", describe(o))
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metric names and
// units in step with the benchmark's declaration.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		specs []metricSpec
		decl  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		if len(c.specs) != len(c.decl) {
			t.Errorf("%s: reports %d metrics, BENCHMARK.json declares %d", c.what, len(c.specs), len(c.decl))
			continue
		}
		for i, s := range c.specs {
			if d := c.decl[i]; d.Name != s.name || d.Unit != s.unit {
				t.Errorf("%s[%d]: reports %s (%s), BENCHMARK.json declares %s (%s)", c.what, i, s.name, s.unit, d.Name, d.Unit)
			}
		}
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q, which perfbench does not run", w.Name)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, perfbench runs %d", len(decl.Workloads), len(workloads))
	}
}
