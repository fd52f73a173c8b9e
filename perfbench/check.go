package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"reflect"

	blp "repro"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The output check. Every workload's results must
//
//  1. pass the in-simulator host-reference memory check (blp.Run,
//     sim.Run and sim.RunBatch fail a run whose final memory image
//     differs from the kernel's host reference, so a result that exists
//     passed it);
//  2. be byte-identical across paths: Runner batched replay against a
//     live blp.Run (sweep), a served ResultJSON against the result the
//     store was filled with and against a live recomputation (serve),
//     one round against the next (live);
//  3. give the same Cycles and Stats when the pipeline is driven layer by
//     layer (kernels.Build, trace.Capture, sim.Run / sim.RunBatch) as
//     blp.Run gives.
//
// Timing-dependent counters (segment-cache hits, memo joins) are never
// part of an exact comparison.

// resultBytes is the gob encoding of a result, the form the Runner's
// durable store persists; two results are byte-identical when their
// encodings are.
func resultBytes(r *blp.Result) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		panic(fmt.Sprintf("encoding a blp.Result: %v", err)) // gob encodes every Result
	}
	return buf.Bytes()
}

// sameResults reports, for each index, whether got[i] is byte-identical
// to want[i].
func sameResults(errs *errList, what string, labels []string, want, got []*blp.Result) {
	if len(want) != len(got) {
		errs.addf("%s: %d results, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		switch {
		case want[i] == nil || got[i] == nil:
			errs.addf("%s: %s: missing result", what, labels[i])
		case !bytes.Equal(resultBytes(want[i]), resultBytes(got[i])):
			errs.addf("%s: %s: result differs in %v", what, labels[i], fieldDiff("", reflect.ValueOf(*got[i]), reflect.ValueOf(*want[i])))
		}
	}
}

// fieldDiff lists the fields in which two values differ, as "path got/want".
func fieldDiff(path string, got, want reflect.Value) []string {
	switch got.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < got.NumField(); i++ {
			out = append(out, fieldDiff(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i))...)
		}
		return out
	case reflect.Slice:
		if got.Len() != want.Len() {
			return []string{fmt.Sprintf("%s len %d/%d", path, got.Len(), want.Len())}
		}
		var out []string
		for i := 0; i < got.Len(); i++ {
			out = append(out, fieldDiff(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))...)
		}
		return out
	}
	g, w := fmt.Sprint(got.Interface()), fmt.Sprint(want.Interface())
	if g == w {
		return nil
	}
	return []string{fmt.Sprintf("%s %s/%s", path, g, w)}
}

// samePipeline checks that a layer-by-layer simulation reproduced the
// Cycles and Stats of blp's result for the same configuration.
func samePipeline(errs *errList, label string, want *blp.Result, got *sim.Result) {
	switch {
	case want == nil || got == nil:
		errs.addf("pipeline: %s: missing result", label)
	case got.Cycles != want.Cycles:
		errs.addf("pipeline: %s: %d cycles, blp.Run gave %d", label, got.Cycles, want.Cycles)
	case !reflect.DeepEqual(got.Total, want.Stats):
		errs.addf("pipeline: %s: core stats differ from blp.Run", label)
	}
}

// wireResult is the serve API's JSON form of r, encoded compactly — what
// a served response's "result" field must equal byte for byte once its
// whitespace is compacted.
func wireResult(r *blp.Result) []byte {
	b, err := json.Marshal(serve.ResultJSON{
		Cycles:       r.Cycles,
		IPC:          blp.Metric(r.IPC),
		LLCMissRate:  blp.Metric(r.LLCMissRate),
		DRAMBusy:     blp.Metric(r.DRAMBusy),
		EnergyUseful: blp.Metric(r.EnergyUseful),
		Stats:        r.Stats,
		PerCore:      r.PerCore,
	})
	if err != nil {
		panic(fmt.Sprintf("encoding a serve.ResultJSON: %v", err)) // Metric encodes NaN as null
	}
	return b
}

// sameServed checks one served result (raw JSON, as received) against
// the wire form of the expected result for its key.
func sameServed(errs *errList, key string, raw []byte, want *blp.Result) {
	if want == nil {
		errs.addf("served: %s: no expected result", key)
		return
	}
	var got bytes.Buffer
	if err := json.Compact(&got, raw); err != nil {
		errs.addf("served: %s: malformed result JSON: %v", key, err)
		return
	}
	if !bytes.Equal(got.Bytes(), wireResult(want)) {
		errs.addf("served: %s: result differs from the expected one", key)
	}
}
