package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	blp "repro"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

// The serve workload: set-up fills a durable store with a 56-result
// catalog; each measured round warm-restarts an in-process serve.Server
// on a copy of that store, listening on loopback, and nproc closed-loop
// clients send a seeded Zipf script of /v1/run requests with an
// occasional /v1/sweep of cached items. Serve, JSON, memo hits and store
// first-touch reads do the work. The store keeps the trace but not the
// result of 7 catalog configurations (withheld), so their first request
// decodes a stored trace and replays it. Eight novel configuration
// pairs, each pair sharing a workload (TraceKey) the store has never
// seen, sit at fixed script positions: the first of a pair runs live,
// the second is the Runner's capture-on-second-sighting case and
// replays serially.

const (
	// scriptLen is the number of requests in one round's script.
	scriptLen = 30000
	// sweepOneIn makes about one request in sweepOneIn a sweep.
	sweepOneIn = 50
	// sweepItems is the number of cached items in each sweep.
	sweepItems = 8
	// novelPairs is the number of novel configuration pairs per script.
	novelPairs = 8
	// novelDegree sets the novel pairs' workloads apart from every
	// catalog workload (which uses the default degree 16).
	novelDegree = 8
	// handlerProbes is the number of in-process handler calls timed for
	// serve.handler_us.
	handlerProbes = 2000
	// zipfS is the exponent of request popularity: the configuration of
	// popularity rank k is asked for with probability proportional to
	// k^-zipfS. It is an assumption, as there is no traffic of this
	// service to measure; 0.8 lies within the 0.64-0.83 that Breslau et
	// al. fitted to six web proxy traces ("Web Caching and Zipf-like
	// Distributions: Evidence and Implications", INFOCOM 1999).
	zipfS = 0.8
)

// serveCatalog is the store's contents: every kernel, baseline and
// outer-sliced, under four timing configurations, at scale -3.
func serveCatalog(seed uint64) []blp.Options {
	var opts []blp.Options
	for _, b := range blp.Benchmarks {
		for _, m := range []blp.SliceMode{blp.SliceNone, blp.SliceOuter} {
			for _, v := range []func(*blp.Options){
				func(*blp.Options) {},
				func(o *blp.Options) { o.Predictor = "oracle" },
				func(o *blp.Options) { o.FRQSize = 2 },
				func(o *blp.Options) { o.Reserve = 16 },
			} {
				o := blp.Options{Benchmark: b, Mode: m, Seed: seed, Scale: scaled(b, crossScaleDelta)}
				v(&o)
				opts = append(opts, o)
			}
		}
	}
	return opts
}

// withheld reports whether a catalog configuration is one whose result
// set-up deletes from the store, keeping its workload's trace: the
// outer-sliced reserve-16 configuration of each kernel.
func withheld(o blp.Options) bool { return o.Mode == blp.SliceOuter && o.Reserve == 16 }

// withhold deletes the stored result of every withheld configuration,
// after checking that the store holds it and its workload's trace (so a
// key that does not match blp's naming fails set-up instead of leaving
// the result in place).
func withhold(st *store.Store, catalog []blp.Options) error {
	for _, o := range catalog {
		if !withheld(o) {
			continue
		}
		rk := storedResultPrefix + o.Key()
		if !st.Has(rk) || !st.Has(storedTracePrefix+o.TraceKey()) {
			return fmt.Errorf("the catalog store lacks the result or the trace of %s", describe(o))
		}
		st.Delete(rk)
	}
	return nil
}

// serveNovel are the novel pairs, flattened: entries 2p and 2p+1 share a
// workload and differ in recovery policy. They use the smallest inputs
// the kernels accept, so their simulations exercise the capture and
// replay paths without dominating a round's time.
func serveNovel(seed uint64) []blp.Options {
	var opts []blp.Options
	for p := 0; p < novelPairs; p++ {
		b := blp.Benchmarks[p%len(blp.Benchmarks)]
		mode := blp.BestMode(b)
		if p >= len(blp.Benchmarks) {
			mode = blp.SliceNone
		}
		for _, pol := range []string{"partial:16", "throttle:2"} {
			opts = append(opts, blp.Options{Benchmark: b, Mode: mode, Seed: seed,
				Scale: minScale, Degree: novelDegree, Policy: pol})
		}
	}
	return opts
}

// request is one script entry: a /v1/run of one configuration or a
// /v1/sweep of several, with the canonical key of each.
type request struct {
	sweep bool
	body  []byte
	keys  []string
	opts  []blp.Options
}

func runRequest(o blp.Options) serve.RunRequest {
	return serve.RunRequest{
		Benchmark: o.Benchmark, Mode: o.Mode.String(), Scale: o.Scale, Degree: o.Degree, Seed: o.Seed,
		Predictor: o.Predictor, Policy: o.Policy, Reserve: o.Reserve,
		ROBBlockSize: o.ROBBlockSize, FRQSize: o.FRQSize,
	}
}

func newRequest(opts ...blp.Options) (request, error) {
	rq := request{sweep: len(opts) > 1, opts: opts}
	var body any
	if rq.sweep {
		var sr serve.SweepRequest
		for _, o := range opts {
			sr.Runs = append(sr.Runs, runRequest(o))
		}
		body = sr
	} else {
		body = runRequest(opts[0])
	}
	for _, o := range opts {
		rq.keys = append(rq.keys, o.Key())
	}
	var err error
	rq.body, err = json.Marshal(body)
	return rq, err
}

// serveScript is the seeded request script: catalog configurations drawn
// from a Zipf(zipfS) distribution, about one sweep in sweepOneIn, and the
// novel pairs at fixed positions (the second of each pair scriptLen/60
// requests after the first). The popularity ranking is an arbitrary
// permutation of the catalog, the same for every seed, so every seed asks
// for the same mix; the seed draws the order of the requests.
func serveScript(seed uint64, catalog, novel []blp.Options) ([]request, error) {
	rank := rand.New(rand.NewPCG(0, 0x5e7e)).Perm(len(catalog))
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	cdf := make([]float64, len(catalog))
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -zipfS)
		cdf[k] = total
	}
	script := make([]request, scriptLen)
	for i := range script {
		var err error
		if rng.IntN(sweepOneIn) == 0 {
			var items []blp.Options
			for _, j := range rng.Perm(len(catalog))[:sweepItems] {
				items = append(items, catalog[j])
			}
			script[i], err = newRequest(items...)
		} else {
			script[i], err = newRequest(catalog[rank[sort.SearchFloat64s(cdf, rng.Float64()*total)]])
		}
		if err != nil {
			return nil, err
		}
	}
	for p := 0; p < len(novel)/2; p++ {
		first := (p + 1) * scriptLen / (novelPairs + 2)
		for j, pos := range []int{first, first + scriptLen/60} {
			rq, err := newRequest(novel[2*p+j])
			if err != nil {
				return nil, err
			}
			script[pos] = rq
		}
	}
	return script, nil
}

type serveState struct {
	catalog, novel []blp.Options
	// expected maps a canonical key to the result it must be served
	// with: the catalog's set-up results, and (after the measured phase)
	// a live recomputation of every novel configuration.
	expected map[string]*blp.Result
	pristine string
	script   []request
	// simulated are the configurations a round's server has to simulate,
	// each once: the novel ones, and the withheld ones the script asks
	// for. Every other request is answered from the store or the memo.
	simulated []blp.Options
	// first is the server set-up started for the first round.
	first  *liveServer
	buildS float64
}

func setupServe(e *env) (workload, error) {
	st := &serveState{catalog: serveCatalog(e.seed), novel: serveNovel(e.seed), expected: map[string]*blp.Result{}}
	var err error
	if st.buildS, err = buildAll(e.tr, append(append([]blp.Options(nil), st.catalog...), st.novel...)); err != nil {
		return nil, err
	}

	st.pristine = filepath.Join(e.work, "catalog")
	root := e.tr.begin("store.fill", e.tr.newOp(), 0)
	cat, err := blp.OpenStore(st.pristine, 0)
	if err != nil {
		return nil, err
	}
	res, err := blp.NewRunnerStore(e.nproc, blp.DefaultCacheBudget, cat).RunAll(st.catalog)
	if err == nil {
		err = withhold(cat, st.catalog)
	}
	if cerr := cat.Close(); err == nil {
		err = cerr
	}
	e.tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("filling the catalog: %w", err)
	}
	for i, o := range st.catalog {
		st.expected[o.Key()] = res[i]
	}
	if st.script, err = serveScript(e.seed, st.catalog, st.novel); err != nil {
		return nil, err
	}
	st.simulated = append([]blp.Options(nil), st.novel...)
	for _, o := range st.catalog {
		if withheld(o) && requested(st.script, o.Key()) {
			st.simulated = append(st.simulated, o)
		}
	}
	if st.first, err = startServer(e, st.pristine); err != nil {
		return nil, err
	}
	return st, nil
}

// requested reports whether the script asks for key.
func requested(script []request, key string) bool {
	for _, rq := range script {
		if slices.Contains(rq.keys, key) {
			return true
		}
	}
	return false
}

// close stops the server set-up started, for a set-up-only run.
func (st *serveState) close() error {
	err := st.first.stop()
	os.RemoveAll(st.first.dir)
	return err
}

// liveServer is one in-process server on its own copy of the store.
type liveServer struct {
	srv  *serve.Server
	st   *store.Store
	dir  string
	base string
	done chan error
	once sync.Once
}

// startServer copies the pristine store, opens it, and serves it on a
// loopback port.
func startServer(e *env, pristine string) (*liveServer, error) {
	dir, err := os.MkdirTemp(e.work, "serve-store-")
	if err != nil {
		return nil, err
	}
	if err := copyTree(pristine, dir); err != nil {
		return nil, err
	}
	st, err := blp.OpenStore(dir, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	ls := &liveServer{
		srv:  serve.New(serve.Config{Jobs: e.nproc, Store: st}),
		st:   st,
		dir:  dir,
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.srv.Serve(ln) }()
	return ls, nil
}

// stop drains the server, waits for Serve to return, and closes the
// store. The store directory stays for the caller to probe or remove.
func (ls *liveServer) stop() error {
	var err error
	ls.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err = ls.srv.Shutdown(ctx)
		if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		if cerr := ls.st.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// servedKey identifies one distinct served result: the key it was served
// for and a digest of its bytes.
type servedKey struct {
	key    string
	digest [32]byte
}

// serveRound is what one round's clients observed.
type serveRound struct {
	latMS     []float64 // per script position
	kind      []byte    // 'h' cached run, 'm' uncached run, 's' sweep
	ok        []bool
	respBytes int64
	wall, cpu time.Duration
	served    map[servedKey][]byte // raw result JSON, one per distinct result
	metrics   serve.MetricsSnapshot
	runner    blp.RunnerStats
}

var resultField = []byte(`"result":`)

// runClients plays the script against ls with nproc closed-loop clients
// sharing one connection pool of at most nproc connections. Each request
// is timed from just before it is sent to when its body has been read.
func runClients(e *env, t *tracer, ls *liveServer, script []request, errs *errList) *serveRound {
	n := len(script)
	r := &serveRound{latMS: make([]float64, n), kind: make([]byte, n), ok: make([]bool, n),
		served: map[servedKey][]byte{}}
	transport := &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0, c0 := time.Now(), cpuTime()
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cerrs errList
			var bytesRead int64
			seen := map[servedKey][]byte{}
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				rq := script[i]
				path, name := "/v1/run", "http /v1/run"
				if rq.sweep {
					path, name = "/v1/sweep", "http /v1/sweep"
				}
				id := t.begin(name, t.newOp(), 0)
				t1 := time.Now()
				body, status, err := post(client, ls.base+path, rq.body)
				r.latMS[i] = time.Since(t1).Seconds() * 1000
				t.end(id)
				bytesRead += int64(len(body))
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				}
				if err == nil {
					r.kind[i], err = collect(seen, rq, body)
				}
				if err != nil {
					cerrs.addf("serve request %d (%s): %v", i, path, err)
					continue
				}
				r.ok[i] = true
			}
			mu.Lock()
			defer mu.Unlock()
			*errs = append(*errs, cerrs...)
			r.respBytes += bytesRead
			for k, v := range seen {
				r.served[k] = v
			}
		}()
	}
	wg.Wait()
	r.wall, r.cpu = time.Since(t0), cpuTime()-c0
	r.runner = ls.srv.Runner().Stats()
	body, status, err := get(client, ls.base+"/metrics")
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &r.metrics)
	} else if err == nil {
		err = fmt.Errorf("GET /metrics: status %d", status)
	}
	if err != nil {
		errs.addf("serve metrics: %v", err)
	}
	return r
}

func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func get(c *http.Client, url string) ([]byte, int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// collect records the distinct results of one response in seen (the
// full parse happens only the first time a result is seen for its key)
// and classifies the response.
func collect(seen map[servedKey][]byte, rq request, body []byte) (byte, error) {
	if !rq.sweep {
		at := bytes.Index(body, resultField)
		if at < 0 {
			return 0, fmt.Errorf("response has no result")
		}
		sk := servedKey{rq.keys[0], sha256.Sum256(body[at:])}
		if _, ok := seen[sk]; !ok {
			var resp struct {
				Key    string          `json:"key"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				return 0, err
			}
			if resp.Key != rq.keys[0] {
				return 0, fmt.Errorf("served key %q, want %q", resp.Key, rq.keys[0])
			}
			seen[sk] = resp.Result
		}
		if bytes.Contains(body[:at], []byte(`"cached": true`)) {
			return 'h', nil
		}
		return 'm', nil
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != len(rq.keys) {
		return 0, fmt.Errorf("sweep returned %d items, want %d", len(lines), len(rq.keys))
	}
	got := make([]bool, len(rq.keys))
	for _, line := range lines {
		var it struct {
			Index  int             `json:"index"`
			Key    string          `json:"key"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(line, &it); err != nil {
			return 0, err
		}
		if it.Error != "" {
			return 0, fmt.Errorf("sweep item %d: %s", it.Index, it.Error)
		}
		if it.Index < 0 || it.Index >= len(rq.keys) || got[it.Index] || it.Key != rq.keys[it.Index] {
			return 0, fmt.Errorf("sweep item %d with key %q does not match the request", it.Index, it.Key)
		}
		got[it.Index] = true
		seen[servedKey{it.Key, sha256.Sum256(it.Result)}] = it.Result
	}
	return 's', nil
}

// checkServe compares every distinct served result with the expected one
// and recomputes a sample live: every novel configuration, and the first
// catalog configuration of each kernel (which must equal its set-up
// result byte for byte).
func checkServe(e *env, st *serveState, served map[servedKey][]byte, errs *errList) {
	novel := liveResults(st.novel, e.nproc, errs)
	for i, o := range st.novel {
		st.expected[o.Key()] = novel[i]
	}
	var sample []blp.Options
	for i := 0; i < len(st.catalog); i += len(st.catalog) / len(blp.Benchmarks) {
		sample = append(sample, st.catalog[i])
	}
	var want []*blp.Result
	for _, o := range sample {
		want = append(want, st.expected[o.Key()])
	}
	sameResults(errs, "serve catalog vs live", labelsOf(sample), want, liveResults(sample, e.nproc, errs))
	for sk, raw := range served {
		sameServed(errs, sk.key, raw, st.expected[sk.key])
	}
}

// checkSimulated checks that a round's server simulated exactly the
// configurations it had to: one more means a result the store holds was
// not served from it.
func checkSimulated(st *serveState, r *serveRound, errs *errList) {
	if r.runner.Simulated != len(st.simulated) {
		errs.addf("serve: the round's server simulated %d configurations, want %d", r.runner.Simulated, len(st.simulated))
	}
}

func (st *serveState) measure(e *env) (*outcome, error) {
	out := &outcome{}
	var errs errList
	if e.tr != nil {
		m, err := traceServe(e, st, out, &errs)
		out.metrics, out.checkErr = m, errs.err()
		return out, err
	}

	// Only what the metrics and the check need is kept from each round,
	// so the rounds already played do not add to a later round's memory.
	served := map[servedKey][]byte{}
	var walls, cpus, lat, rss, rps []float64
	ls := st.first
	st.first = nil
	for moreRounds(walls, e.seconds) {
		settle()
		if ls == nil {
			var err error
			if ls, err = startServer(e, st.pristine); err != nil {
				return nil, err
			}
		}
		r := runClients(e, nil, ls, st.script, &errs)
		rss = append(rss, peakRSSMB())
		err := ls.stop()
		os.RemoveAll(ls.dir)
		ls = nil
		if err != nil {
			return nil, fmt.Errorf("stopping the server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: serve round %d: %d requests in %.3fs, latency p50 %.3fms p99 %.3fms max %.1fms, peak RSS %.1f MB\n",
			len(walls), len(st.script), r.wall.Seconds(), quantile(r.latMS, 0.5), quantile(r.latMS, 0.99), quantile(r.latMS, 1), rss[len(rss)-1])
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		checkSimulated(st, r, &errs)
		for k, v := range r.served {
			served[k] = v
		}
		out.attempted += len(st.script)
		done := 0
		for i, ok := range r.ok {
			if ok {
				lat = append(lat, r.latMS[i])
				done++
			} else {
				out.failed++
			}
		}
		rps = append(rps, float64(done)/r.wall.Seconds())
	}

	// Every round simulates the same configurations (checkSimulated), so
	// its simulated instructions are the sum of their results'.
	checkServe(e, st, served, &errs)
	var insts float64
	for _, o := range st.simulated {
		if res := st.expected[o.Key()]; res != nil {
			insts += float64(res.Stats.Committed)
		}
	}
	var minst []float64
	for _, cpu := range cpus {
		minst = append(minst, insts/cpu/1e6)
	}
	out.checkErr = errs.err()
	out.metrics = map[string]float64{
		"peak_rss_mb": maxOf(rss),
		"minst_per_s": median(minst),
		"wall_s":      median(walls),
		"p50_ms":      median(lat),
		"rps":         median(rps),
	}
	return out, nil
}

// traceServe is the traced serve run: one untraced round, one round with
// every request in a span (its server supplies the runner, memo, store
// and serve metrics), in-process handler calls without TCP, a read-back
// of the round's store, and the novel pairs driven layer by layer —
// kernels.Build, trace.Capture, sim.Run live and replaying the stored
// trace — checked against live blp.Run.
func traceServe(e *env, st *serveState, out *outcome, errs *errList) (map[string]float64, error) {
	m := newLayerMetrics()
	m["kernels.build_s"] = st.buildS
	plain := runClients(e, nil, st.first, st.script, errs)
	if err := st.first.stop(); err != nil {
		return nil, err
	}
	os.RemoveAll(st.first.dir)
	ls, err := startServer(e, st.pristine)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ls.dir)
	defer ls.stop()
	traced := runClients(e, e.tr, ls, st.script, errs)
	m["bench.trace_overhead_s"] = traced.wall.Seconds() - plain.wall.Seconds()
	checkSimulated(st, plain, errs)
	checkSimulated(st, traced, errs)
	for _, r := range []*serveRound{plain, traced} {
		out.attempted += len(st.script)
		for _, ok := range r.ok {
			if !ok {
				out.failed++
			}
		}
	}

	var hit, miss, sweep, all []float64
	for i, ms := range traced.latMS {
		if !traced.ok[i] {
			continue
		}
		all = append(all, ms)
		switch traced.kind[i] {
		case 'h':
			hit = append(hit, ms)
		case 'm':
			miss = append(miss, ms)
		case 's':
			sweep = append(sweep, ms)
		}
	}
	m["serve.hit_p50_ms"] = median(hit)
	m["serve.miss_p50_ms"] = median(miss)
	m["serve.sweep_p50_ms"] = median(sweep)
	m["serve.p99_ms"] = quantile(all, 0.99)
	m["serve.resp_bytes"] = ratio(float64(traced.respBytes), float64(len(st.script)))
	m["serve.server_p50_ms"] = float64(traced.metrics.Latency.P50MS)
	m["serve.rejected"] = float64(traced.metrics.Rejected)
	runnerCounts(m, ls.srv.Runner())

	h := ls.srv.Handler()
	var handler []float64
	for i := 0; i < handlerProbes; i++ {
		o := st.catalog[i%len(st.catalog)]
		rq, err := newRequest(o)
		if err != nil {
			return nil, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(rq.body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		e.tr.do("serve.Handler", e.tr.newOp(), 0, func() { h.ServeHTTP(rec, req) })
		handler = append(handler, float64(time.Since(t0).Nanoseconds())/1000)
		if rec.Code != http.StatusOK {
			errs.addf("serve handler: %s: status %d", describe(o), rec.Code)
		}
	}
	m["serve.handler_us"] = median(handler)
	if err := ls.stop(); err != nil {
		return nil, err
	}

	// The server decodes a withheld configuration's stored trace inside
	// its Runner, out of reach of a span; the same stored objects are
	// decoded again here for trace.bytes and trace.decode_s.
	objs, err := probeStore(e.tr, m, ls.dir, e.work)
	if err == nil {
		tks := map[string]bool{}
		for _, o := range st.simulated {
			if withheld(o) {
				tks[o.TraceKey()] = true
			}
		}
		err = decodeTraces(e.tr, m, objs, tks)
	}
	if err != nil {
		return nil, fmt.Errorf("serve store probe: %w", err)
	}
	for k, v := range plain.served {
		traced.served[k] = v
	}
	checkServe(e, st, traced.served, errs)
	if err := driveSimulated(e, st, m, objs, errs); err != nil {
		return nil, err
	}
	return m, nil
}

// driveSimulated drives every configuration the round's server
// simulated layer by layer and checks it against its expected result:
// kernels.Build then sim.Run live for the first of each novel pair; for
// the second, a fresh trace.Capture (which must equal the trace the
// server stored) and sim.Run replaying the stored trace, as the server's
// serial replay path does; for a withheld configuration, sim.Run
// replaying its workload's stored trace, as the server's first touch
// does.
func driveSimulated(e *env, st *serveState, m map[string]float64, objs []storedObject, errs *errList) error {
	var live, replay, captureTime time.Duration
	var liveInsts, replayInsts, mallocs float64
	for i, o := range st.simulated {
		op := e.tr.newOp()
		var tr *trace.Trace
		if withheld(o) {
			var err error
			if tr, err = findTrace(objs, o); err != nil {
				errs.addf("serve: %v", err)
				continue
			}
		} else if i%2 == 1 {
			w, err := build(e.tr, op, 0, o)
			if err != nil {
				return err
			}
			fresh, took, err := capture(e.tr, op, w)
			if err != nil {
				return err
			}
			captureTime += took
			m["trace.records"] += float64(fresh.Len())
			if tr, err = findTrace(objs, o); err != nil {
				errs.addf("serve: %v", err)
				continue
			}
			if tr.ID() != fresh.ID() {
				errs.addf("serve: stored trace of %s differs from a fresh capture", describe(o))
			}
		}
		d, err := runDirect(e.tr, op, 0, o, tr)
		if err != nil {
			errs.addf("serve pipeline: %v", err)
			continue
		}
		samePipeline(errs, describe(o), st.expected[o.Key()], d.res)
		addCoreCounts(m, d.res)
		if tr != nil {
			replay += d.simul
			replayInsts += float64(d.res.Total.Committed)
		} else {
			live += d.simul
			liveInsts += float64(d.res.Total.Committed)
			mallocs += float64(d.mallocs)
		}
	}
	finishCoreRatios(m)
	m["trace.capture_s"] = captureTime.Seconds()
	m["trace.capture_ns_per_inst"] = ratio(float64(captureTime.Nanoseconds()), m["trace.records"])
	m["sim.live_ns_per_inst"] = ratio(float64(live.Nanoseconds()), liveInsts)
	m["sim.allocs_per_kinst"] = ratio(1000*mallocs, liveInsts)
	m["sim.replay_ns_per_inst"] = ratio(float64(replay.Nanoseconds()), replayInsts)
	m["sim.ns_per_cycle"] = ratio(float64((live + replay).Nanoseconds()), m["core.cycles"])
	return nil
}
