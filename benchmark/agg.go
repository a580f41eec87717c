package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A p50 therefore needs 20 samples and a p90 needs 100; with fewer, the
// percentile is a property of a handful of samples, not of the system.
const minBeyond = 10

// errTooFewSamples reports a percentile the sample count cannot support.
var errTooFewSamples = errors.New("too few samples for percentile")

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks. It refuses when fewer than
// minBeyond samples lie beyond the quantile.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0,1)", q)
	}
	if float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples: %w", q*100, n, errTooFewSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// minRounds is the fewest rounds a median over rounds is taken from.
const minRounds = 3

// roundMedian is the median of per-round values: the benchmark's
// throughput figures are medians over rounds of identical composition,
// never means or totals over cells whose costs differ.
func roundMedian(xs []float64) (float64, error) {
	if len(xs) < minRounds {
		return 0, fmt.Errorf("median over %d rounds (want >= %d): %w", len(xs), minRounds, errTooFewSamples)
	}
	return median(xs), nil
}

// median is the plain median, for probe repetitions and set-up
// repetitions whose count the benchmark fixes itself.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// checks counts the operations a run attempted and the ones whose
// output was wrong or which failed outright. Any failure makes the run
// incorrect and the command exit non-zero.
type checks struct {
	attempted int
	failed    int
	problems  []string
}

// ok records one operation whose output verified.
func (c *checks) ok() { c.attempted++ }

// fail records one failed operation with its reason.
func (c *checks) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// invalid records a problem with the run itself (not one operation),
// such as an open-loop generator that fell behind.
func (c *checks) invalid(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, "invalid run: "+fmt.Sprintf(format, args...))
}

// correct reports whether every attempted operation verified.
func (c *checks) correct() bool { return c.failed == 0 && c.attempted > 0 }

// roundRecord is what one round of a simulation workload must
// reproduce exactly under the same seed: the digest of its canonical
// results and the exact DRAM counts behind them.
type roundRecord struct {
	Digest string            `json:"digest"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// compareRounds checks the rounds this run shares with an earlier run
// of the same workload and seed, and returns the merged record. Rounds
// only one of the two runs reached are taken as they are.
func compareRounds(c *checks, prev, cur map[int]roundRecord) map[int]roundRecord {
	merged := make(map[int]roundRecord, len(prev)+len(cur))
	for r, rec := range prev {
		merged[r] = rec
	}
	for r, rec := range cur {
		old, seen := prev[r]
		switch {
		case !seen:
		case old.Digest != rec.Digest:
			c.fail("round %d: result digest %s differs from %s of an earlier run with this seed", r, shortDigest(rec.Digest), shortDigest(old.Digest))
		case !sameCounts(old.Counts, rec.Counts):
			c.fail("round %d: dram counts %v differ from %v of an earlier run with this seed", r, rec.Counts, old.Counts)
		default:
			c.ok()
		}
		merged[r] = rec
	}
	return merged
}

func sameCounts(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// shortDigest trims a hex digest for messages.
func shortDigest(d string) string { return d[:min(12, len(d))] }
