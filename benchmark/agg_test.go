package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"rhohammer/internal/campaign"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q      float64
		n      int
		wantOK bool
	}{
		{0.5, 19, false}, {0.5, 20, true},
		{0.8, 49, false}, {0.8, 50, true},
		{0.9, 99, false}, {0.9, 100, true},
	} {
		_, err := percentile(seq(tc.n), tc.q)
		if ok := err == nil; ok != tc.wantOK {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", tc.q*100, tc.n, err, tc.wantOK)
		}
		if err != nil && !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%g of %d samples: err = %v, want errTooFewSamples", tc.q*100, tc.n, err)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := seq(100)
	// Shuffle-insensitive: reverse the input.
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	for q, want := range map[float64]float64{0.5: 50.5, 0.9: 90.1} {
		got, err := percentile(xs, q)
		if err != nil || math.Abs(got-want) > 1e-9 {
			t.Errorf("p%g = %v, %v; want %v", q*100, got, err, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestRoundMedian(t *testing.T) {
	if _, err := roundMedian([]float64{1, 2}); !errors.Is(err, errTooFewSamples) {
		t.Errorf("two rounds: err = %v, want errTooFewSamples", err)
	}
	got, err := roundMedian([]float64{9, 1, 5})
	if err != nil || got != 5 {
		t.Errorf("median of 9,1,5 = %v, %v; want 5", got, err)
	}
	got, _ = roundMedian([]float64{4, 1, 3, 2})
	if got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v, want 2.5", got)
	}
	// One stalled round moves a mean by a third; the median not at all.
	got, _ = roundMedian([]float64{10, 10.2, 9.8, 10.1, 0.5})
	if got != 10 {
		t.Errorf("median with one stalled round = %v, want 10", got)
	}
}

func TestChecks(t *testing.T) {
	var c checks
	if c.correct() {
		t.Error("a run that attempted nothing reads correct")
	}
	c.ok()
	if !c.correct() {
		t.Error("one verified operation reads incorrect")
	}
	c.fail("digest %s", "x")
	if c.correct() || c.attempted != 2 || c.failed != 1 {
		t.Errorf("after a failure: correct=%v attempted=%d failed=%d", c.correct(), c.attempted, c.failed)
	}
	var inv checks
	inv.ok()
	inv.invalid("generator late")
	if inv.correct() {
		t.Error("an invalid run reads correct")
	}
}

func TestCompareRounds(t *testing.T) {
	a := roundRecord{Digest: "aaaaaaaaaaaaaaaa", Counts: map[string]uint64{"acts": 10}}
	b := roundRecord{Digest: "bbbbbbbbbbbbbbbb", Counts: map[string]uint64{"acts": 10}}
	aMoreActs := roundRecord{Digest: a.Digest, Counts: map[string]uint64{"acts": 11}}

	var c checks
	merged := compareRounds(&c, map[int]roundRecord{0: a}, map[int]roundRecord{0: a, 1: b})
	if c.failed != 0 || c.attempted != 1 || len(merged) != 2 {
		t.Errorf("matching round: failed=%d attempted=%d merged=%d", c.failed, c.attempted, len(merged))
	}
	c = checks{}
	compareRounds(&c, map[int]roundRecord{0: a}, map[int]roundRecord{0: b})
	if c.failed != 1 {
		t.Error("a changed digest under the same seed was not flagged")
	}
	c = checks{}
	compareRounds(&c, map[int]roundRecord{0: a}, map[int]roundRecord{0: aMoreActs})
	if c.failed != 1 {
		t.Error("changed dram counts under the same seed were not flagged")
	}
}

// TestRunRoundDigest pins the per-run output check on a cheap spec: the
// same seed gives the same digest, a different result a different one,
// and a failing cell is a failed operation.
func TestRunRoundDigest(t *testing.T) {
	pool := campaign.NewPool(2)
	defer pool.Close()
	spec := func(bias int64, failKey string) []simSpec {
		s := campaign.Spec{
			Name: "toy", Seed: 7,
			Cells: []campaign.Cell{{Key: "a"}, {Key: "b"}, {Key: "c"}},
			Exec: func(c campaign.Cell, seed int64) (any, error) {
				if c.Key == failKey {
					return nil, errors.New("boom")
				}
				return seed%1000 + bias, nil
			},
		}
		return []simSpec{{spec: s, scale: 1}}
	}
	var c checks
	r1, err1 := runRound(&c, pool, spec(0, ""))
	r2, err2 := runRound(&c, pool, spec(0, ""))
	r3, err3 := runRound(&c, pool, spec(1, ""))
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if r1.record.Digest != r2.record.Digest {
		t.Error("the same spec gave two digests")
	}
	if r1.record.Digest == r3.record.Digest {
		t.Error("a changed result kept its digest")
	}
	if r1.cells != 3 || len(r1.cellWalls) != 3 || c.failed != 0 {
		t.Errorf("cells=%d walls=%d failed=%d", r1.cells, len(r1.cellWalls), c.failed)
	}
	if _, err := runRound(&c, pool, spec(0, "b")); err != nil {
		t.Fatal(err)
	}
	if c.failed != 1 {
		t.Errorf("a failing cell counted %d failures, want 1", c.failed)
	}
}

func TestCheckWindow(t *testing.T) {
	e := &env{}
	checkWindow(e, &window{lagMax: 2 * maxLag})
	if e.checks.failed != 1 {
		t.Error("a generator running late did not invalidate the run")
	}
	e = &env{}
	checkWindow(e, &window{inflight: []int64{1, 1, 1, 1, 2, 4, 8, 9}})
	if e.checks.failed != 1 {
		t.Error("a growing backlog did not invalidate the run")
	}
	e = &env{}
	checkWindow(e, &window{lagMax: time.Millisecond, inflight: []int64{2, 1, 3, 2, 2, 1, 3, 2}})
	if e.checks.failed != 0 {
		t.Errorf("a steady window was invalidated: %v", e.checks.problems)
	}
}

// TestPhaseOnly pins the split of an alternating traced phase: each
// side keeps its own rounds, in order, and the phase-wide counters.
func TestPhaseOnly(t *testing.T) {
	p := &phase{peakMB: 7}
	for r := 0; r < 6; r++ {
		p.rounds = append(p.rounds, roundStats{cells: r, traced: r%2 == 1})
	}
	base, traced := p.only(false), p.only(true)
	if got := base.perRound(func(r roundStats) float64 { return float64(r.cells) }); len(got) != 3 || got[0] != 0 || got[2] != 4 {
		t.Errorf("untraced rounds %v", got)
	}
	if traced.cells() != 1+3+5 || traced.peakMB != 7 || len(p.rounds) != 6 {
		t.Errorf("traced cells %d peak %v, phase rounds %d", traced.cells(), traced.peakMB, len(p.rounds))
	}
}

// TestClosedBatchesShareComposition pins what makes the closed loop's
// median over batches meaningful: every batch offers the same job
// classes and specs, only their seeds differ, and no job of the closed
// loop repeats one of the open loop's unless it is a cache hit.
func TestClosedBatchesShareComposition(t *testing.T) {
	open, closed, _, _ := plan(3, 5*time.Second, 4, recoveredJobs(3))
	if len(open) != 80 || len(closed) != 4 {
		t.Fatalf("%d open jobs, %d batches; want 80 and 4", len(open), len(closed))
	}
	shape := func(b []serveJob) map[string]int {
		m := map[string]int{}
		for _, j := range b {
			spec, _, _ := strings.Cut(j.key, "|")
			if j.class == "local" {
				spec = "inline"
			}
			m[j.class+"/"+spec]++
		}
		return m
	}
	want := shape(closed[0])
	if want["leased/fig8"] != 1 || want["leased/fig6"] != 0 || want["local/inline"] != 16 || want["cache_hit/table2"]+want["cache_hit/fig8"]+want["cache_hit/fig6"] != 10 {
		t.Errorf("batch 0 shape %v", want)
	}
	seen := map[string]bool{}
	for _, j := range open {
		seen[j.key] = true
	}
	for i, b := range closed {
		if len(b) != 40 {
			t.Errorf("batch %d has %d jobs", i, len(b))
		}
		got := shape(b)
		for k, n := range want {
			if !strings.HasPrefix(k, "cache_hit") && got[k] != n {
				t.Errorf("batch %d: %d of %s, batch 0 has %d", i, got[k], k, n)
			}
		}
		for _, j := range b {
			if j.class != "cache_hit" && seen[j.key] {
				t.Errorf("batch %d reruns %s", i, j.key)
			}
			seen[j.key] = true
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"rhohammer/internal/cpu.(*Engine).RunPayload": "rhohammer/internal/cpu",
		"runtime.mallocgc":                            "runtime",
		"math/rand.(*Rand).Float64":                   "math/rand",
		"main.burn":                                   "main",
		"rhohammer/internal/mem.NewPool":              "rhohammer/internal/mem",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink float64

func burn(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}

func TestProfileShares(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	s, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	// 300 ms of one busy goroutine at 100 Hz is about 30 samples.
	if s.total < 100*int64(time.Millisecond) {
		t.Fatalf("profile holds %v of CPU time, want about 300ms: %v", time.Duration(s.total), s.flat)
	}
	// A test binary names package main by its import path; the race
	// detector's runtime takes a share of its own.
	if got := s.share("main") + s.share("rhohammer/benchmark") + s.share("math"); got == 0 {
		t.Errorf("the busy loop's packages hold none of the profile: %v", s.flat)
	}
}

// TestBenchmarkJSONMatches keeps the checked-in BENCHMARK.json equal to
// the tables in main.go.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from benchmarkJSON(); regenerate it with -spec")
	}
}
