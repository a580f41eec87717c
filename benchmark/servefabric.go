package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/experiments"
	"rhohammer/internal/hammer"
	"rhohammer/internal/obs"
	"rhohammer/internal/serve"
	"rhohammer/internal/stats"
)

const (
	// serveBoots is how many coordinator boots set-up times; setup_s is
	// their median.
	serveBoots = 15
	// closedBatches is how many batches of two cycles the closed loop
	// runs after the open loop; cells_per_s is their median.
	closedBatches = 7
	// recoveredCount is how many finished jobs each boot recovers: the
	// most that fit the default retention of 64 with room for the load.
	recoveredCount = 48
	// serveRate is the open loop's offered load in jobs per second, well
	// below what the two-CPU host sustains.
	serveRate = 16.0
	// statusPoll is how often the client polls a running job.
	statusPoll = 5 * time.Millisecond
	// maxLag is how late the generator may send before the run is
	// invalid: later than this, latency reflects the generator.
	maxLag = 100 * time.Millisecond
	// drainWait bounds how long jobs may still run after the window.
	drainWait = 15 * time.Second
)

// serveJob is one planned submission.
type serveJob struct {
	idx   int
	due   time.Duration // from the window's start
	class string        // "leased", "local" or "cache_hit"
	body  []byte
	key   string // expected-envelope key
}

// registeredJob names a registered (spec, seed, scale) job.
type registeredJob struct {
	spec  string
	seed  int64
	scale float64
}

func (r registeredJob) key() string { return fmt.Sprintf("%s|%d|%g", r.spec, r.seed, r.scale) }

func (r registeredJob) body() []byte {
	b, _ := json.Marshal(map[string]any{"spec": r.spec, "seed": r.seed, "scale": r.scale})
	return b
}

// leasedSpecs are the registered small-cell specs the open loop leases
// to the worker.
var leasedSpecs = []registeredJob{{spec: "table2", scale: 1}, {spec: "fig6", scale: 0.01}, {spec: "fig8", scale: 0.01}}

// recoveredJobs are the finished jobs an untimed earlier coordinator
// leaves in the store for every boot to recover.
func recoveredJobs(seed int64) []registeredJob {
	var out []registeredJob
	for i := 0; i < recoveredCount; i++ {
		r := leasedSpecs[0]
		if i%12 == 10 {
			r = leasedSpecs[1]
		} else if i%12 == 11 {
			r = leasedSpecs[2]
		}
		r.seed = jobSeed(seed, "recovered", i)
		out = append(out, r)
	}
	return out
}

// jobSeed derives the seed of the i-th job of a kind from the workload
// seed.
func jobSeed(seed int64, kind string, i int) int64 {
	return stats.SplitSeed(seed, fmt.Sprintf("serve-fabric/%s/%d", kind, i))
}

// inlineBudget is the budget of the inline jobs' one tiny fuzz cell, a
// RecommendedSingleBank cell on Raptor Lake x S3.
var inlineBudget = campaign.Budget{Patterns: 2, Locations: 1, DurationNS: 10e6}

// inlineJob is an inline job's grid in its wire form.
func inlineJob(name string) serve.InlineSpec {
	a := arch.RaptorLake()
	cfg := hammer.RecommendedSingleBank(a)
	return serve.InlineSpec{Name: name, Cells: []serve.InlineCell{{
		Key: "rho-1bank", Arch: a.Name, DIMM: arch.DIMMS3().ID,
		Config: serve.InlineConfig{Instr: cfg.Instr.String(), Banks: cfg.Banks, Barrier: cfg.Barrier.String(), Nops: cfg.Nops, Obfuscate: cfg.Obfuscate},
		Budget: serve.InlineBudget{Patterns: inlineBudget.Patterns, Locations: inlineBudget.Locations, DurationNS: inlineBudget.DurationNS},
	}}}
}

// inlineCampaign is the campaign the server must run for
// inlineJob(name), built from the configuration the wire form encodes,
// so that its canonical envelope can be computed in process.
func inlineCampaign(name string, seed int64) campaign.Spec {
	a := arch.RaptorLake()
	return campaign.Spec{
		Name: "inline/" + name, Kind: campaign.KindAux, Seed: seed,
		Cells: []campaign.Cell{{Key: "rho-1bank", Arch: a, DIMM: arch.DIMMS3(), Config: hammer.RecommendedSingleBank(a), Budget: inlineBudget}},
		Exec: func(c campaign.Cell, seed int64) (any, error) {
			s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
			if err != nil {
				return nil, err
			}
			return s.Fuzz(c.Config, hammer.FuzzOptions{Patterns: c.Budget.Patterns, Locations: c.Budget.Locations, DurationNS: c.Budget.DurationNS})
		},
	}
}

// cycle is the job mix, twenty submissions a cycle in a seeded order.
// Cheap jobs dominate, so a 20 s run offers 400 jobs and the job p50 and
// p90 rest on 200 and 40 samples beyond them, while the host stays well
// below capacity:
//   - five resubmissions that hit the result cache;
//   - six table2 jobs and one fig6 or fig8 job (alternating by cycle),
//     leased to the worker and journaled;
//   - eight inline fuzz grids on the coordinator's pool, two of them
//     with parallel set, which run on a dedicated runner.
var cycle = []string{
	"hit", "hit", "hit", "hit", "hit",
	"table2", "table2", "table2", "table2", "table2", "table2", "fig",
	"local", "local", "local", "local", "local", "local", "local-parallel", "local-parallel",
}

// plan builds the open loop's submissions for d of offered load,
// rounded up to whole cycles, then the closed loop's batches of two
// cycles each, and the expected-envelope specs they all need. In the
// closed loop the figure slot always carries fig8, so that every batch
// has the same composition.
func plan(seed int64, d time.Duration, batches int, recovered []registeredJob) (open []serveJob, closed [][]serveJob, registered map[string]registeredJob, inline map[string]int64) {
	rng := rand.New(rand.NewSource(seed))
	openCycles := int(math.Ceil(d.Seconds() * serveRate / float64(len(cycle))))
	n := (openCycles + 2*batches) * len(cycle)
	registered = map[string]registeredJob{}
	inline = map[string]int64{}         // job name -> seed
	leased := map[int][]registeredJob{} // cycle -> its leased jobs, fig first
	var order []string
	for i := 0; i < n; i++ {
		c, slot := i/len(cycle), i%len(cycle)
		if slot == 0 {
			order = append([]string(nil), cycle...)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			leased[c] = make([]registeredJob, 7)
		}
		// Evenly spaced sends with seeded jitter: no phase lock with the
		// worker's 200 ms poll, and no Poisson bursts.
		j := serveJob{idx: i, due: time.Duration((float64(i) + 0.5*rng.Float64()) / serveRate * float64(time.Second))}
		switch kind := order[slot]; kind {
		case "hit":
			// Resubmit a job that finished well before: a recovered job
			// in the first two cycles, later a leased job from two
			// cycles back. Either is still in the cache.
			k := countBefore(order[:slot], "hit")
			r := recovered[(c*5+k)%len(recovered)]
			if c >= 2 {
				r = leased[c-2][k]
			}
			j.class, j.body, j.key = "cache_hit", r.body(), r.key()
			registered[r.key()] = r
		case "table2", "fig":
			// The fig slot carries fig6 or fig8 every other cycle and
			// table2 otherwise: the figure jobs occupy the worker for
			// 0.3 s, and more of them would queue the table2 jobs.
			r, k := leasedSpecs[0], 1+countBefore(order[:slot], "table2")
			if kind == "fig" {
				k = 0
				switch {
				case c%2 != 0:
				case c >= openCycles:
					r = leasedSpecs[2]
				default:
					r = leasedSpecs[1+c/2%2]
				}
			}
			r.seed = jobSeed(seed, "job", i)
			leased[c][k] = r
			j.class, j.body, j.key = "leased", r.body(), r.key()
			registered[r.key()] = r
		default:
			name := fmt.Sprintf("fz-%d", i)
			s := jobSeed(seed, "inline", i)
			req := map[string]any{"inline": inlineJob(name), "seed": s, "scale": 1}
			if kind == "local-parallel" {
				req["parallel"] = 2
			}
			j.body, _ = json.Marshal(req)
			j.class, j.key = "local", "inline/"+name
			inline[name] = s
		}
		if c < openCycles {
			open = append(open, j)
			continue
		}
		b := (c - openCycles) / 2
		if b == len(closed) {
			closed = append(closed, nil)
		}
		closed[b] = append(closed[b], j)
	}
	return open, closed, registered, inline
}

func countBefore(xs []string, v string) int {
	n := 0
	for _, x := range xs {
		if x == v {
			n++
		}
	}
	return n
}

// jobResult is what the client observed for one job.
type jobResult struct {
	idx        int
	class      string
	latencyMS  float64 // from the scheduled send to the fetched result
	submitMS   float64
	fetchMS    float64
	queueMS    float64
	runMS      float64
	cellWalls  []float64
	cells      int
	cached     bool
	traceBytes int
	ok         bool
}

// jobStatus is the subset of GET /v1/jobs/{id} the client reads.
type jobStatus struct {
	ID       string              `json:"id"`
	State    string              `json:"state"`
	Created  string              `json:"created"`
	Started  string              `json:"started"`
	Finished string              `json:"finished"`
	Cells    []campaign.CellStat `json:"cells"`
	Cached   bool                `json:"cached"`
	Error    string              `json:"error"`
}

// fabric is one coordinator incarnation with its worker.
type fabric struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	cancel context.CancelFunc
	done   chan error
	worker *serve.Worker
}

// bootFabric starts a coordinator on the store, its listener, and one
// worker, returning once the worker has registered.
func bootFabric(storeDir string, coordinator bool) (*fabric, error) {
	srv, err := serve.New(serve.Config{Registry: experiments.Registry, StoreDir: storeDir, Coordinator: coordinator})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fabric{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 2)}
	go func() {
		if err := f.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			f.done <- err
		}
	}()
	if !coordinator {
		return f, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	// The defaults serverd's worker role runs with: lease batch 4,
	// 200 ms poll, GOMAXPROCS cell workers.
	f.worker = &serve.Worker{Coordinator: f.url, Registry: experiments.Registry, Name: "rhobench", MaxCells: 4, Poll: 200 * time.Millisecond}
	go func() { f.done <- f.worker.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for f.worker.ID() == "" {
		if time.Now().After(deadline) {
			f.stop()
			return nil, errors.New("worker did not register within 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return f, nil
}

// stop drains the coordinator and waits for the worker and listener.
func (f *fabric) stop() error {
	if f.cancel != nil {
		f.cancel()
		if err := <-f.done; err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("worker: %w", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.srv.Drain(ctx); err != nil {
		return err
	}
	return f.hs.Shutdown(ctx)
}

// client is the load generator's HTTP side, with one connection per CPU.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// metricsScrape reads /metrics into a map.
func (c *client) metricsScrape() (map[string]float64, error) {
	code, data, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// runJob submits one job, follows it to its result and checks the
// envelope against the expected bytes. With a span log, it records the
// job's spans there and fetches a local job's trace.
func (c *client) runJob(e *env, j serveJob, windowStart time.Time, expected []byte, sl *spanLog) jobResult {
	res := jobResult{idx: j.idx, class: j.class}
	jobSpan := sl.begin(fmt.Sprintf("job %d %s", j.idx, j.key), 0)
	defer sl.end(jobSpan)
	fail := func(format string, args ...any) jobResult {
		e.checksMu.Lock()
		e.checks.fail("job %d (%s): %s", j.idx, j.key, fmt.Sprintf(format, args...))
		e.checksMu.Unlock()
		return res
	}

	start := time.Now()
	id := sl.begin("serve.submit", jobSpan)
	code, body, err := c.do("POST", "/v1/jobs", j.body)
	sl.end(id)
	res.submitMS = msSince(start)
	if err != nil {
		return fail("submit: %v", err)
	}
	if code != http.StatusAccepted {
		return fail("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fail("submit body: %v", err)
	}
	if st.State != "done" {
		id = sl.begin("serve.poll", jobSpan)
		for st.State != "done" && st.State != "failed" && st.State != "canceled" {
			time.Sleep(statusPoll)
			code, body, err = c.do("GET", "/v1/jobs/"+st.ID, nil)
			if err != nil || code != http.StatusOK {
				sl.end(id)
				return fail("status: HTTP %d %v", code, err)
			}
			if err := json.Unmarshal(body, &st); err != nil {
				sl.end(id)
				return fail("status body: %v", err)
			}
		}
		sl.end(id)
		if st.State != "done" {
			return fail("job %s: %s", st.State, st.Error)
		}
		created, _ := time.Parse(time.RFC3339Nano, st.Created)
		started, _ := time.Parse(time.RFC3339Nano, st.Started)
		finished, _ := time.Parse(time.RFC3339Nano, st.Finished)
		res.queueMS = float64(started.Sub(created).Nanoseconds()) / 1e6
		res.runMS = float64(finished.Sub(started).Nanoseconds()) / 1e6
		for _, cs := range st.Cells {
			res.cellWalls = append(res.cellWalls, float64(cs.Wall)/1e6)
		}
		res.cells = len(st.Cells)
	} else {
		res.cached = true
	}
	fetch := time.Now()
	id = sl.begin("serve.result", jobSpan)
	code, body, err = c.do("GET", "/v1/jobs/"+st.ID+"/result", nil)
	sl.end(id)
	res.fetchMS = msSince(fetch)
	res.latencyMS = float64((time.Since(windowStart) - j.due).Nanoseconds()) / 1e6
	if err != nil || code != http.StatusOK {
		return fail("result: HTTP %d %v", code, err)
	}
	if !bytes.Equal(body, expected) {
		return fail("served envelope (%d bytes) differs from the in-process canonical envelope (%d bytes)", len(body), len(expected))
	}
	if sl != nil && j.class == "local" {
		if code, tr, err := c.do("GET", "/v1/jobs/"+st.ID+"/trace", nil); err == nil && code == http.StatusOK {
			res.traceBytes = len(tr)
		}
	}
	res.ok = true
	e.checksMu.Lock()
	e.checks.ok()
	e.checksMu.Unlock()
	return res
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// window is one stretch of the open loop.
type window struct {
	results  []jobResult
	lagMax   time.Duration
	inflight []int64 // in-flight job counts sampled every 250 ms
	pending  []float64
	rt0, rt1 runtimeSample
	peakMB   float64
	start    time.Time
}

// runWindow offers jobs on their schedule, which counts from origin,
// and waits for them. The jobs from index traceFrom on record spans in
// sl; startTrace, when non-nil, runs just before the first of them is
// sent, so the loop never pauses between its untraced and traced parts.
func runWindow(e *env, c *client, jobs []serveJob, expected map[string][]byte, origin time.Time, traceFrom int, sl *spanLog, startTrace func()) *window {
	mem := startMemSampler()
	w := &window{rt0: readRuntime(), start: origin}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var inflight atomic.Int64
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-t.C:
				m, err := c.metricsScrape()
				mu.Lock()
				w.inflight = append(w.inflight, inflight.Load())
				if err == nil {
					w.pending = append(w.pending, m["rhohammer_serve_pending_cells"])
				}
				mu.Unlock()
			}
		}
	}()
	for i, j := range jobs {
		var jsl *spanLog
		if i >= traceFrom {
			jsl = sl
			if i == traceFrom && startTrace != nil {
				startTrace()
			}
		}
		if d := time.Until(w.start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(w.start.Add(j.due)); lag > w.lagMax {
			w.lagMax = lag
		}
		wg.Add(1)
		inflight.Add(1)
		go func(j serveJob) {
			defer wg.Done()
			defer inflight.Add(-1)
			r := c.runJob(e, j, w.start, expected[j.key], jsl)
			mu.Lock()
			w.results = append(w.results, r)
			mu.Unlock()
		}(j)
	}
	close(stopSampler)
	<-samplerDone
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(drainWait):
		e.checksMu.Lock()
		e.checks.invalid("jobs still running %v after the open loop ended: the backlog grew", drainWait)
		e.checksMu.Unlock()
		<-finished
	}
	w.rt1 = readRuntime()
	w.peakMB = mem.stopMB()
	return w
}

// classP50 is the median of f over a class's verified jobs ("" for
// all), or 0 with a note when the class has too few.
func classP50(e *env, rs []jobResult, class string, f func(jobResult) float64) float64 {
	var xs []float64
	for _, r := range rs {
		if r.ok && (class == "" || r.class == class) {
			xs = append(xs, f(r))
		}
	}
	return percentileOrZero(e, xs, 0.5)
}

func runServeFabric(e *env) error {
	obs.SetEnabled(true) // as serverd runs
	defer obs.SetEnabled(false)
	storeDir, err := os.MkdirTemp(e.out, "rhobench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)

	// Untimed: the expected envelopes, computed in process.
	recovered := recoveredJobs(e.seed)
	total, batches := e.seconds, closedBatches
	if e.traced {
		total, batches = e.seconds*3/2, 0
	}
	jobs, closed, registered, inline := plan(e.seed, total, batches, recovered)
	for _, r := range recovered {
		registered[r.key()] = r
	}
	specs := map[string]simSpec{}
	for k, r := range registered {
		entry, _ := experiments.Registry.Lookup(r.spec)
		specs[k] = simSpec{spec: entry.Build(campaign.Params{Seed: r.seed, Scale: r.scale}), scale: r.scale}
	}
	for name, seed := range inline {
		specs["inline/"+name] = simSpec{spec: inlineCampaign(name, seed), scale: 1}
	}
	expected, err := expectedEnvelopes(e.workers, specs)
	if err != nil {
		return err
	}

	// Untimed: an earlier incarnation fills the store with finished jobs.
	f, err := bootFabric(storeDir, false)
	if err != nil {
		return err
	}
	c := newClient(f.url, e.workers)
	for i, r := range recovered {
		res := c.runJob(e, serveJob{idx: -1 - i, class: "fill", body: r.body(), key: r.key()}, time.Now(), expected[r.key()], nil)
		if !res.ok {
			f.stop()
			return errors.New("filling the store failed")
		}
	}
	if err := f.stop(); err != nil {
		return err
	}

	// Set-up: boot the coordinator on the filled store (journal replay,
	// compaction, snapshot load, cache re-warm), start its listener and
	// register the worker. The last boot serves the load.
	var boots []float64
	for i := 0; i < serveBoots; i++ {
		start := time.Now()
		f, err = bootFabric(storeDir, true)
		if err != nil {
			return err
		}
		boots = append(boots, time.Since(start).Seconds())
		if i < serveBoots-1 {
			if err := f.stop(); err != nil {
				return err
			}
		}
	}
	defer f.stop()
	e.set("setup_s", median(boots))
	c = newClient(f.url, e.workers)
	before, err := c.metricsScrape()
	if err != nil {
		return err
	}

	// The open loop. A traced run offers its first third untraced, then
	// traces the rest with the CPU profile on, without a pause between.
	settleHeap()
	origin := time.Now()
	if !e.traced {
		w := runWindow(e, c, jobs, expected, origin, len(jobs), nil, nil)
		if m, err := c.metricsScrape(); err == nil {
			e.note("rhohammer_serve_pending_cells after the last job: %.0f", m["rhohammer_serve_pending_cells"])
		}
		checkWindow(e, w)
		return serveEndToEnd(e, c, w, closed, expected)
	}
	split := 0
	for split < len(jobs) && jobs[split].due < e.seconds/2 {
		split++
	}
	var prof *profiler
	var perr error
	w := runWindow(e, c, jobs, expected, origin, split, e.spans, func() { prof, perr = startProfile() })
	if perr != nil {
		return perr
	}
	if prof == nil {
		return errors.New("the run is too short to have a traced part")
	}
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	after, err := c.metricsScrape()
	if err != nil {
		return err
	}
	checkWindow(e, w)
	serveLayers(e, w, split, before, after, storeDir)
	return finishTrace(e, "serve-fabric", shares, fig8ResultBytes())
}

// serveEndToEnd reports the end-to-end metrics: latencies, memory and
// allocation from the open loop, then cells_per_s from the closed loop.
func serveEndToEnd(e *env, c *client, w *window, closed [][]serveJob, expected map[string][]byte) error {
	var lat []float64
	cells := 0
	for _, r := range w.results {
		if r.ok {
			lat = append(lat, r.latencyMS)
			cells += r.cells
		}
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return err
	}
	e.set("job_p50_ms", p50)
	e.set("job_p90_ms", p90)
	rates := runClosed(e, c, closed, expected)
	rate, err := roundMedian(rates)
	if err != nil {
		return err
	}
	e.set("cells_per_s", rate)
	e.set("peak_rss_mb", w.peakMB)
	e.set("alloc_mb_per_cell", (w.rt1.allocBytes-w.rt0.allocBytes)/1e6/float64(max(cells, 1)))
	e.note("open loop: %d jobs at %.0f/s; generator lag max %v; %d cells executed", len(lat), serveRate, w.lagMax.Round(time.Microsecond), cells)
	e.note("closed loop: %d batches of %d jobs; cells_per_s is their median, from %s cells/s", len(rates), len(closed[0]), fmtRates(rates))
	for _, class := range []string{"cache_hit", "local", "leased"} {
		var xs []float64
		for _, r := range w.results {
			if r.ok && r.class == class {
				xs = append(xs, r.latencyMS)
			}
		}
		sort.Float64s(xs)
		if n := len(xs); n > 0 {
			e.note("%s: %d jobs, latency min %.1f p25 %.1f p50 %.1f p75 %.1f max %.1f ms", class, n, xs[0], xs[n/4], xs[n/2], xs[3*n/4], xs[n-1])
		}
	}
	return nil
}

// expectedEnvelopes computes the envelope the server must serve for
// each spec, untimed and in process. It runs several specs at a time,
// so that one-cell specs keep every pool worker busy.
func expectedEnvelopes(workers int, specs map[string]simSpec) (map[string][]byte, error) {
	pool := campaign.NewPool(workers)
	defer pool.Close()
	keys := sortedKeys(specs)
	out := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2*workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
				out[i], _, errs[i] = canonical(pool, specs[keys[i]])
			}
		}()
	}
	wg.Wait()
	expected := make(map[string][]byte, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", k, errs[i])
		}
		expected[k] = out[i]
	}
	return expected, nil
}

// runClosed runs the closed loop: batch after batch, one client
// goroutine per CPU takes the batch's jobs in order and runs each to its
// checked result before taking the next. It returns each batch's
// executed cells per second. Unlike the open loop's rate, which is the
// offered load, this falls when the server slows down.
func runClosed(e *env, c *client, batches [][]serveJob, expected map[string][]byte) []float64 {
	var rates []float64
	for _, b := range batches {
		var next, cells atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < e.workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(b); i = int(next.Add(1)) - 1 {
					r := c.runJob(e, b[i], time.Now(), expected[b[i].key], nil)
					cells.Add(int64(r.cells))
				}
			}()
		}
		wg.Wait()
		rates = append(rates, float64(cells.Load())/time.Since(start).Seconds())
	}
	return rates
}

func fmtRates(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 3, 64)
	}
	return strings.Join(parts, " ")
}

// checkWindow marks a run invalid whose generator fell behind or whose
// backlog grew, so it cannot read as fast.
func checkWindow(e *env, w *window) {
	if w.lagMax > maxLag {
		e.checks.invalid("the generator ran %v late (limit %v)", w.lagMax, maxLag)
	}
	n := len(w.inflight)
	if n >= 8 {
		var early, late float64
		for _, v := range w.inflight[:n/2] {
			early += float64(v)
		}
		for _, v := range w.inflight[n*3/4:] {
			late += float64(v)
		}
		early /= float64(n / 2)
		late /= float64(n - n*3/4)
		if late > 2*early+2 {
			e.checks.invalid("jobs in flight grew from %.1f to %.1f over the window", early, late)
		}
	}
}

// serveLayers fills the serve, store, obs and campaign per-layer
// metrics from the traced part of the window (jobs from index split
// on), the /metrics deltas and the journal.
func serveLayers(e *env, w *window, split int, before, after map[string]float64, storeDir string) {
	var base, rs []jobResult
	for _, r := range w.results {
		if r.idx < split {
			base = append(base, r)
		} else {
			rs = append(rs, r)
		}
	}
	e.set("serve.submit_ms_p50", classP50(e, rs, "", func(r jobResult) float64 { return r.submitMS }))
	e.set("serve.result_fetch_ms_p50", classP50(e, rs, "", func(r jobResult) float64 { return r.fetchMS }))
	var queued, ran []float64
	var walls []float64
	traceBytes, traced := 0, 0
	for _, r := range rs {
		if r.ok && !r.cached {
			queued = append(queued, r.queueMS)
			ran = append(ran, r.runMS)
			walls = append(walls, r.cellWalls...)
		}
		if r.ok && r.class == "local" {
			traceBytes += r.traceBytes
			traced++
		}
	}
	e.set("serve.queue_wait_ms_p50", percentileOrZero(e, queued, 0.5))
	e.set("serve.run_ms_p50", percentileOrZero(e, ran, 0.5))
	e.set("campaign.cell_busy_ms_p50", percentileOrZero(e, walls, 0.5))
	latency := func(r jobResult) float64 { return r.latencyMS }
	e.set("serve.leased_job_p50_ms", classP50(e, rs, "leased", latency))
	e.set("serve.local_job_p50_ms", classP50(e, rs, "local", latency))
	e.set("serve.cache_hit_job_p50_ms", classP50(e, rs, "cache_hit", latency))
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("rhohammer_serve_result_cache_hits_total"), delta("rhohammer_serve_result_cache_misses_total")
	e.set("serve.cache_lookups", hits+misses)
	if hits+misses > 0 {
		e.set("serve.cache_hit_ratio", hits/(hits+misses))
	}
	grants := delta("rhohammer_lease_grants_total")
	e.set("serve.lease_grants", grants)
	if grants > 0 {
		e.set("serve.cells_per_lease", delta("rhohammer_lease_cells_leased_total")/grants)
	}
	e.set("serve.lease_reclaims", delta("rhohammer_lease_reclaims_total"))
	pmax := 0.0
	for _, v := range w.pending {
		pmax = max(pmax, v)
	}
	e.set("serve.pending_cells_max", pmax)
	e.set("serve.pending_cells_end", after["rhohammer_serve_pending_cells"])
	e.set("serve.generator_lag_ms_max", float64(w.lagMax.Microseconds())/1e3)
	if traced > 0 {
		e.set("obs.trace_bytes_per_job", float64(traceBytes)/float64(traced))
	}
	b50 := classP50(e, base, "", latency)
	t50 := classP50(e, rs, "", latency)
	if b50 > 0 {
		e.set("obs.tracing_overhead", t50/b50-1)
	}
	e.set("runtime.gc_cpu_frac", gcFrac(w.rt0, w.rt1))
	e.set("bench.job_samples", float64(len(rs)))
	if data, err := os.ReadFile(filepath.Join(storeDir, "journal.jsonl")); err == nil {
		e.set("store.journal_bytes", float64(len(data)))
		e.set("store.cells_journaled", float64(bytes.Count(data, []byte(`"kind":"cell"`))))
	}
}

// fig8ResultBytes is the wire size of one fig8 cell result, the
// journaled size the store probe appends.
func fig8ResultBytes() int {
	entry, _ := experiments.Registry.Lookup("fig8")
	s := entry.Build(campaign.Params{Seed: defaultSeed, Scale: 0.01})
	s.Cells = s.Cells[:1]
	out, err := campaign.Runner{Workers: 1}.Run(s)
	if err != nil || len(out.Results) == 0 {
		return 0
	}
	b, err := campaign.EncodeResult(out.Results[0])
	if err != nil {
		return 0
	}
	return len(b)
}
