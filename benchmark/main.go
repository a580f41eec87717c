// Command rhobench is the repository's benchmark: it drives the
// simulator's layers (campaign, hammer, experiments, mem, store, serve)
// through their exported functions on one of three workloads (two in
// BENCHMARK.json, one run by hand), checks every output, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics, as the
// last line of standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"setup_s": {"value": 0.31, "unit": "s"}, ...}}
//
// Run it through run.sh from the repository root, which builds it from
// source first:
//
//	bash benchmark/run.sh --workload fuzz-hammer --seed 7 --seconds 40 --trace 0
//
// README.md in this directory explains the workloads, the metrics and
// the rules that keep the figures steady.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric. Moves says which end-to-end
// metric, on which workload, a per-layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the simulator sees; every workload
// reports all of them in an untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_cell", Unit: "MB", Better: "lower", Bound: 0.1},
}

const (
	simWorkloads = "fuzz-hammer and reverse-map"
	fuzzOnly     = "on fuzz-hammer"
	serveOnly    = "job_p50_ms and job_p90_ms on serve-fabric"
	mappingMoves = "the mapping probe's time, and cells_per_s and alloc_mb_per_cell on reverse-map; nothing on fuzz-hammer"
)

// perLayer are the traced run's metrics, one group per layer. A layer a
// workload does not call reads 0 there; README.md has the table.
var perLayer = []metricDef{
	{Name: "campaign.cell_busy_ms_p50", Unit: "ms", Better: "lower", Moves: "cells_per_s on " + simWorkloads},
	{Name: "campaign.occupancy", Unit: "ratio", Better: "higher", Moves: "cells_per_s on " + simWorkloads},
	{Name: "campaign.pool_dispatch_us", Unit: "us", Better: "lower", Moves: "job_p50_ms on serve-fabric"},
	{Name: "hammer.session_new_ms", Unit: "ms", Better: "lower", Moves: "setup_s and cells_per_s " + fuzzOnly},
	{Name: "hammer.fuzz_ms_p50", Unit: "ms", Better: "lower", Moves: "cells_per_s " + fuzzOnly},
	{Name: "hammer.sim_acts_per_s", Unit: "1/s", Better: "higher", Moves: "cells_per_s " + fuzzOnly},
	{Name: "hammer.patterns", Unit: "count", Better: "higher", Moves: "cells_per_s " + fuzzOnly},
	{Name: "hammer.program_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "cells_per_s " + fuzzOnly},
	{Name: "hammer.program_cache_lookups", Unit: "count", Better: "higher", Moves: "base of hammer.program_cache_hit_ratio"},
	{Name: "hammer.payload_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "cells_per_s " + fuzzOnly},
	{Name: "hammer.payload_cache_lookups", Unit: "count", Better: "higher", Moves: "base of hammer.payload_cache_hit_ratio"},
	{Name: "cpu.payload_batches", Unit: "count", Better: "lower", Moves: "cells_per_s " + fuzzOnly},
	{Name: "cpu.acts_per_batch", Unit: "ratio", Better: "higher", Moves: "cells_per_s " + fuzzOnly},
	{Name: "cpu.cpu_share", Unit: "ratio", Better: "lower", Moves: "cells_per_s " + fuzzOnly},
	{Name: "dram.acts", Unit: "count", Better: "higher", Moves: "nothing: exact, a speed-only change leaves it identical"},
	{Name: "dram.refs", Unit: "count", Better: "higher", Moves: "nothing: exact, a speed-only change leaves it identical"},
	{Name: "dram.trr_triggers", Unit: "count", Better: "higher", Moves: "nothing: exact, a speed-only change leaves it identical"},
	{Name: "dram.flips", Unit: "count", Better: "higher", Moves: "nothing: exact, a speed-only change leaves it identical"},
	{Name: "dram.cpu_share", Unit: "ratio", Better: "lower", Moves: "cells_per_s " + fuzzOnly},
	{Name: "memctrl.accesses", Unit: "count", Better: "higher", Moves: "nothing: exact, a speed-only change leaves it identical"},
	{Name: "memctrl.row_hit_ratio", Unit: "ratio", Better: "higher", Moves: "cells_per_s on " + simWorkloads},
	{Name: "memctrl.decode_hit_ratio", Unit: "ratio", Better: "higher", Moves: "cells_per_s on " + simWorkloads},
	{Name: "memctrl.cpu_share", Unit: "ratio", Better: "lower", Moves: "cells_per_s on " + simWorkloads},
	{Name: "mem.new_pool_ms", Unit: "ms", Better: "lower", Moves: mappingMoves},
	{Name: "mem.new_pool_alloc_mb", Unit: "MB", Better: "lower", Moves: mappingMoves},
	{Name: "mem.cpu_share", Unit: "ratio", Better: "lower", Moves: mappingMoves},
	{Name: "reverse.cpu_share", Unit: "ratio", Better: "lower", Moves: mappingMoves},
	{Name: "timing.cpu_share", Unit: "ratio", Better: "lower", Moves: mappingMoves},
	{Name: "reverse.mapping_round_ms", Unit: "ms", Better: "lower", Moves: "cells_per_s on reverse-map"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "cells_per_s on all workloads, most on reverse-map"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower", Moves: serveOnly},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: serveOnly},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower", Moves: serveOnly},
	{Name: "serve.result_fetch_ms_p50", Unit: "ms", Better: "lower", Moves: serveOnly},
	{Name: "serve.leased_job_p50_ms", Unit: "ms", Better: "lower", Moves: serveOnly},
	{Name: "serve.local_job_p50_ms", Unit: "ms", Better: "lower", Moves: serveOnly},
	{Name: "serve.cache_hit_job_p50_ms", Unit: "ms", Better: "lower", Moves: serveOnly},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: serveOnly},
	{Name: "serve.cache_lookups", Unit: "count", Better: "higher", Moves: "base of serve.cache_hit_ratio"},
	{Name: "serve.lease_grants", Unit: "count", Better: "lower", Moves: serveOnly},
	{Name: "serve.cells_per_lease", Unit: "cells", Better: "higher", Moves: serveOnly},
	{Name: "serve.lease_reclaims", Unit: "count", Better: "lower", Moves: "nothing: must stay 0"},
	{Name: "serve.pending_cells_max", Unit: "count", Better: "lower", Moves: serveOnly},
	{Name: "serve.pending_cells_end", Unit: "count", Better: "lower", Moves: "nothing: a backlog at the end marks the run invalid"},
	{Name: "serve.generator_lag_ms_max", Unit: "ms", Better: "lower", Moves: "nothing: a late generator marks the run invalid"},
	{Name: "serve.cpu_share", Unit: "ratio", Better: "lower", Moves: serveOnly},
	{Name: "store.append_cell_us_p50", Unit: "us", Better: "lower", Moves: "job_p50_ms on serve-fabric"},
	{Name: "store.cells_journaled", Unit: "count", Better: "higher", Moves: "job_p50_ms on serve-fabric"},
	{Name: "store.journal_bytes", Unit: "bytes", Better: "lower", Moves: "job_p50_ms on serve-fabric"},
	{Name: "obs.trace_bytes_per_job", Unit: "bytes", Better: "lower", Moves: "serve.local_job_p50_ms and peak_rss_mb on serve-fabric"},
	{Name: "obs.tracing_overhead", Unit: "ratio", Better: "lower", Moves: "nothing: the traced phase against the untraced phase"},
	{Name: "bench.job_samples", Unit: "count", Better: "higher", Moves: "sample count behind job_p50_ms and job_p90_ms"},
	{Name: "bench.rounds", Unit: "count", Better: "higher", Moves: "rounds behind the medians over rounds (0 on serve-fabric, which has none)"},
}

// workload is one benchmark input set. run measures it into env. A
// byHand workload runs only when named: BENCHMARK.json leaves it out,
// because its figures drift too far between sets of runs on a shared
// host to gate on (README.md has the figures).
type workload struct {
	Name   string
	Why    string
	run    func(e *env) error
	byHand bool
}

var workloads = []workload{
	{Name: "fuzz-hammer", Why: "fuzz grid of Recommended and RecommendedSingleBank cells on Raptor Lake x S3: host time is in the cpu, dram, memctrl and hammer layers", run: runFuzzHammer},
	{Name: "reverse-map", Why: "registered table4 and table5 grids: the address-mapping phase, bound by mem.NewPool allocation and timing probes", run: runReverseMap, byHand: true},
	{Name: "serve-fabric", Why: "coordinator, worker and store in one process under an open-loop job mix: bound by HTTP, leases, journal fsyncs and the result cache", run: runServeFabric},
}

// env is one workload run: its inputs, its checks, and what it reports.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	out     string // directory for records and artifacts, inside the checkout
	workers int    // pool workers and client connections: one per CPU

	checksMu sync.Mutex // serve-fabric's job goroutines share checks
	checks   checks
	metrics  map[string]float64
	notes    []string
	spans    *spanLog
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// artifactDir is where a traced run writes its spans, profile and
// tables.
func (e *env) artifactDir(workload string) string {
	return filepath.Join(e.out, "rhobench", fmt.Sprintf("%s-seed%d", workload, e.seed))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "fuzz-hammer, reverse-map, serve-fabric, or all (each in turn, in this process)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", runSeconds, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for per-seed records and traced-run artifacts")
	spec := flag.Bool("spec", false, "print BENCHMARK.json for this benchmark and exit")
	flag.Parse()

	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.Name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rhobench: need -workload (fuzz-hammer, reverse-map, serve-fabric or all), -seconds >= 1 and -trace 0 or 1\n")
		os.Exit(2)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "rhobench: %v\n", err)
		os.Exit(2)
	}
	res := resultOut{Correct: true, Metrics: map[string]metricOut{}}
	for _, w := range selected {
		e := &env{
			seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
			out: *out, workers: runtime.NumCPU(), metrics: map[string]float64{},
		}
		if e.traced {
			e.spans = newSpanLog()
		}
		err := w.run(e)
		if err != nil {
			e.checks.invalid("%v", err)
		}
		report(w.Name, e)
		res.Correct = res.Correct && e.checks.correct()
		res.Attempted += e.checks.attempted
		res.Failed += e.checks.failed
		defs := endToEnd
		if e.traced {
			defs = perLayer
		}
		for _, d := range defs {
			v, ok := e.metrics[d.Name]
			if !ok {
				if err == nil {
					res.Correct = false
					res.Failed++
					fmt.Printf("%s: metric %s was not measured\n", w.Name, d.Name)
				}
				continue
			}
			key := d.Name
			if len(selected) > 1 {
				key = w.Name + "/" + d.Name
			}
			res.Metrics[key] = metricOut{Value: v, Unit: d.Unit}
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
		res.Correct = false
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the human-readable part of a run: every metric with
// its unit, the notes, and every failed check.
func report(name string, e *env) {
	fmt.Printf("== %s (seed %d, %v, traced=%v)\n", name, e.seed, e.seconds, e.traced)
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := e.metrics[d.Name]; ok {
			fmt.Printf("  %-34s %14.4f %-6s\n", d.Name, v, d.Unit)
		}
	}
	for _, n := range e.notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  checks: %d attempted, %d failed\n", e.checks.attempted, e.checks.failed)
	for _, p := range e.checks.problems {
		fmt.Printf("  FAIL: %s\n", p)
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// file and the program cannot disagree (TestBenchmarkJSONMatches).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if !w.byHand {
			doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
		}
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, _ := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n')
}

// runSeconds is BENCHMARK.json's run length: the -seconds every
// comparison run uses.
const runSeconds = 40

// ---------------------------------------------------------------- process measures

// settleHeap collects the heap and returns free memory to the OS before
// a measured phase, so garbage left by set-up does not count against
// the phase's peak memory.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// memSampler tracks the peak of the memory the Go runtime holds from
// the OS (mapped minus released) during a measured phase, sampled every
// 10 ms.
type memSampler struct {
	stop, done chan struct{}
	peak       float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			m.peak = max(m.peak, residentMB())
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// stopMB ends the sampling and returns the peak in MB.
func (m *memSampler) stopMB() float64 {
	close(m.stop)
	<-m.done
	return max(m.peak, residentMB())
}

func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / 1e6
}

// runtimeSample is a snapshot of the runtime counters the benchmark
// differences across a phase.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// gcFrac is the share of CPU time the garbage collector took between
// two samples.
func gcFrac(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// ---------------------------------------------------------------- per-seed records

// recordPath is where the round records of one workload and seed live.
func (e *env) recordPath(workload string) string {
	return filepath.Join(e.out, "rhobench", "records", fmt.Sprintf("%s-seed%d.json", workload, e.seed))
}

// checkRecords compares this run's round records with those an earlier
// run of the same workload and seed left in the checkout, then stores
// the union for later runs.
func (e *env) checkRecords(workload string, cur map[int]roundRecord) error {
	path := e.recordPath(workload)
	prev := map[int]roundRecord{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	merged := compareRounds(&e.checks, prev, cur)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sortedKeys returns a map's keys in order, for stable artifacts.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
