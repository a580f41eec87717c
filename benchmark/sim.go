package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"rhohammer/internal/campaign"
	"rhohammer/internal/experiments"
	"rhohammer/internal/obs"
)

// defaultSeed is the workload seed whose digests are pinned in the
// workload definitions; every run also checks its warm-up cell, which
// always uses this seed.
const defaultSeed = 1

// simWorkload is a simulation workload: rounds of campaign specs run on
// one campaign.Pool. Every round has the same composition, only its
// seeds differ, so medians over rounds compare like with like.
type simWorkload struct {
	name string
	// round builds round r's specs from the workload seed; sl, when
	// non-nil, receives spans under parent.
	round func(seed int64, r int, sl *spanLog, parent int64) []simSpec
	// warmup is the one-cell spec set-up runs, always at defaultSeed.
	warmup simSpec
	// pinnedWarmup is the warm-up's canonical digest; pinnedRounds the
	// digests of the first rounds at defaultSeed.
	pinnedWarmup string
	pinnedRounds []string
	// minRounds is how many rounds a run takes at least: enough for a
	// p90 of per-cell latency with minBeyond samples beyond it.
	minRounds int
	// counts extracts the exact DRAM counts of a round's results; nil
	// when the workload's cells do not expose them.
	counts func(results []any) map[string]uint64
}

// simSpec is one spec plus the configuration its canonical envelope
// names.
type simSpec struct {
	spec  campaign.Spec
	scale float64
}

// roundStats is what one measured round produced.
type roundStats struct {
	wall      time.Duration
	cells     int
	cellWalls []float64 // ms
	occupancy float64
	results   []any // every spec's per-cell results, in spec order
	record    roundRecord
	traced    bool // ran with obs counters and spans on
}

// canonical runs a spec in process and renders its canonical envelope:
// the bytes a round digests and the server must serve for the same
// spec, seed and scale.
func canonical(pool *campaign.Pool, s simSpec) ([]byte, *campaign.Outcome, error) {
	out, err := pool.Run(s.spec, campaign.RunOpts{})
	if err != nil {
		return nil, out, err
	}
	var buf bytes.Buffer
	cfg := experiments.Config{Seed: s.spec.Seed, Scale: s.scale}
	err = experiments.WriteCanonicalOutcomeJSON(&buf, s.spec.Name, cfg, out.Result, out)
	return buf.Bytes(), out, err
}

// runRound runs a round's specs concurrently on the pool and digests
// their canonical envelopes.
func runRound(c *checks, pool *campaign.Pool, specs []simSpec) (roundStats, error) {
	envs := make([][]byte, len(specs))
	outs := make([]*campaign.Outcome, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			envs[i], outs[i], errs[i] = canonical(pool, specs[i])
		}(i)
	}
	wg.Wait()
	rs := roundStats{wall: time.Since(start)}
	h := sha256.New()
	var busy time.Duration
	for i, out := range outs {
		if errs[i] != nil {
			c.fail("%s: %v", specs[i].spec.Name, errs[i])
			continue
		}
		c.ok()
		h.Write(envs[i])
		for _, cs := range out.Cells {
			rs.cellWalls = append(rs.cellWalls, float64(cs.Wall)/1e6)
			busy += cs.Wall
		}
		rs.cells += len(out.Cells)
		rs.results = append(rs.results, out.Results...)
	}
	rs.occupancy = float64(busy) / (float64(pool.Workers()) * float64(rs.wall))
	rs.record.Digest = hex.EncodeToString(h.Sum(nil))
	return rs, nil
}

// setUp is one set-up of a simulation workload: build round 0's grid
// and a pool, then run the warm-up cell and check its pinned digest.
// It returns the pool and how long all of that took.
func (w *simWorkload) setUp(e *env) (*campaign.Pool, float64) {
	start := time.Now()
	_ = w.round(e.seed, 0, nil, 0)
	pool := campaign.NewPool(e.workers)
	env, _, err := canonical(pool, w.warmup)
	took := time.Since(start).Seconds()
	sum := sha256.Sum256(env)
	switch digest := hex.EncodeToString(sum[:]); {
	case err != nil:
		e.checks.fail("warm-up: %v", err)
	case digest != w.pinnedWarmup:
		// The full digest, so a deliberate change can pin it.
		e.checks.fail("warm-up digest %s, pinned %s", digest, shortDigest(w.pinnedWarmup))
	default:
		e.checks.ok()
	}
	return pool, took
}

// phase is a sequence of measured rounds.
type phase struct {
	rounds   []roundStats
	rt0, rt1 runtimeSample
	allocMB  float64 // allocated by the rounds, not by set-ups between them
	peakMB   float64
}

func (p *phase) cells() int {
	n := 0
	for _, r := range p.rounds {
		n += r.cells
	}
	return n
}

// perRound maps each round to a value.
func (p *phase) perRound(f func(roundStats) float64) []float64 {
	out := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		out[i] = f(r)
	}
	return out
}

func (p *phase) cellWalls() []float64 {
	var out []float64
	for _, r := range p.rounds {
		out = append(out, r.cellWalls...)
	}
	return out
}

// only is the phase restricted to its traced or its untraced rounds.
func (p *phase) only(traced bool) *phase {
	q := *p
	q.rounds = nil
	for _, r := range p.rounds {
		if r.traced == traced {
			q.rounds = append(q.rounds, r)
		}
	}
	return &q
}

// measure runs rounds from 0 until d has passed and at least atLeast
// rounds ran. spansFor, when non-nil, is called before round r and
// returns the span log to trace it in, or nil to run it untraced.
// between, when non-nil, runs after every round, outside the round's
// wall time and the phase's allocation count.
func (w *simWorkload) measure(e *env, pool *campaign.Pool, atLeast int, d time.Duration, spansFor func(r int) *spanLog, between func()) (*phase, error) {
	settleHeap()
	mem := startMemSampler()
	p := &phase{rt0: readRuntime()}
	var excluded float64
	start := time.Now()
	for r := 0; r < atLeast || time.Since(start) < d; r++ {
		var sl *spanLog
		if spansFor != nil {
			sl = spansFor(r)
		}
		var parent int64
		if sl != nil {
			parent = sl.begin(fmt.Sprintf("round %d", r), 0)
		}
		specs := w.round(e.seed, r, sl, parent)
		rs, err := runRound(&e.checks, pool, specs)
		if sl != nil {
			sl.end(parent)
		}
		if err != nil {
			return nil, err
		}
		rs.traced = sl != nil
		if w.counts != nil {
			rs.record.Counts = w.counts(rs.results)
		}
		p.rounds = append(p.rounds, rs)
		if between != nil {
			before := readRuntime()
			between()
			excluded += readRuntime().allocBytes - before.allocBytes
		}
	}
	p.rt1 = readRuntime()
	p.allocMB = (p.rt1.allocBytes - p.rt0.allocBytes - excluded) / 1e6
	p.peakMB = mem.stopMB()
	return p, nil
}

// runSim is the shared driver of the simulation workloads.
func runSim(e *env, w *simWorkload, layer func(e *env, p *phase)) error {
	// The first set-up builds the pool the rounds run on.
	pool, took := w.setUp(e)
	defer pool.Close()
	setups := []float64{took}

	var p *phase
	var err error
	if !e.traced {
		// setup_s is the median of one set-up before the rounds and one
		// after each round, so the set-ups sample the same stretch of
		// host time as the rounds do rather than its first seconds.
		p, err = w.measure(e, pool, w.minRounds, e.seconds, nil, func() {
			extra, took := w.setUp(e)
			extra.Close()
			setups = append(setups, took)
		})
		if err != nil {
			return err
		}
		e.set("setup_s", median(setups))
	} else {
		// The traced run alternates untraced and traced rounds, the
		// latter with obs counters, spans and the CPU profile on, so host
		// drift weighs on both sides of the tracing overhead alike.
		prof, err := startProfile()
		if err != nil {
			return err
		}
		p, err = w.measure(e, pool, 2*w.minRounds, e.seconds*3/2, func(r int) *spanLog {
			obs.SetEnabled(r%2 == 1)
			if r%2 == 1 {
				return e.spans
			}
			return nil
		}, nil)
		shares, perr := prof.stop()
		obs.SetEnabled(false)
		if err != nil {
			return err
		}
		if perr != nil {
			return perr
		}
		base, tp := p.only(false), p.only(true)
		baseRate, err1 := roundMedian(base.perRound(cellRate))
		rate, err2 := roundMedian(tp.perRound(cellRate))
		if err1 != nil || err2 != nil {
			return fmt.Errorf("tracing overhead: %v %v", err1, err2)
		}
		e.set("obs.tracing_overhead", baseRate/rate-1)
		e.set("bench.rounds", float64(len(tp.rounds)))
		e.set("bench.job_samples", float64(tp.cells()))
		e.set("runtime.gc_cpu_frac", gcFrac(p.rt0, p.rt1))
		busy, err := percentile(tp.cellWalls(), 0.5)
		if err != nil {
			return err
		}
		e.set("campaign.cell_busy_ms_p50", busy)
		occ, _ := roundMedian(tp.perRound(func(r roundStats) float64 { return r.occupancy }))
		e.set("campaign.occupancy", occ)
		layer(e, tp)
		size := 0
		if len(tp.rounds[0].results) > 0 {
			if b, err := campaign.EncodeResult(tp.rounds[0].results[0]); err == nil {
				size = len(b)
			}
		}
		if err := finishTrace(e, w.name, shares, size); err != nil {
			return err
		}
	}

	// Checks: rounds repeat exactly under the same seed, in this run
	// against the pinned digests and across runs against the records.
	cur := map[int]roundRecord{}
	for r, rs := range p.rounds {
		cur[r] = rs.record
		if e.seed == defaultSeed && r < len(w.pinnedRounds) {
			if rs.record.Digest != w.pinnedRounds[r] {
				e.checks.fail("round %d digest %s, pinned %s", r, rs.record.Digest, shortDigest(w.pinnedRounds[r]))
			} else {
				e.checks.ok()
			}
		}
	}
	if err := e.checkRecords(w.name, cur); err != nil {
		return err
	}
	if e.traced {
		return nil
	}

	rate, err := roundMedian(p.perRound(cellRate))
	if err != nil {
		return err
	}
	e.set("cells_per_s", rate)
	walls := p.cellWalls()
	p50, err := percentile(walls, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(walls, 0.9)
	if err != nil {
		return err
	}
	e.set("job_p50_ms", p50)
	e.set("job_p90_ms", p90)
	e.set("peak_rss_mb", p.peakMB)
	e.set("alloc_mb_per_cell", p.allocMB/float64(p.cells()))
	e.note("%d rounds, %d cells, %d set-ups", len(p.rounds), p.cells(), len(setups))
	e.note("cells/s by round: %s; set-up s: %s", fmtRates(p.perRound(cellRate)), fmtRates(setups))
	return nil
}

func cellRate(r roundStats) float64 { return float64(r.cells) / r.wall.Seconds() }

// tracedExec wraps a cell's Exec in a span named after the spec and
// cell, under the round's span.
func tracedExec(sl *spanLog, parent int64, name string, exec func(campaign.Cell, int64) (any, error)) func(campaign.Cell, int64) (any, error) {
	if sl == nil {
		return exec
	}
	return func(c campaign.Cell, seed int64) (any, error) {
		id := sl.begin(name+"/"+c.Key, parent)
		defer sl.end(id)
		return exec(c, seed)
	}
}
