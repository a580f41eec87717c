package main

import (
	"fmt"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/hammer"
	"rhohammer/internal/stats"
)

// fuzzCellsPerRound is the fuzz-hammer round size. Every sixth cell is
// a hammer.RecommendedSingleBank cell and the rest hammer.Recommended
// (3-bank) cells. A 3-bank cell costs about twice a single-bank cell and
// its costs have a long lower tail: with the two one to one, the
// per-cell median falls in the gap between them, and at two to one on
// that tail, where it jumps from run to run. At five to one it falls at
// the 3-bank cells' 40th percentile, where their costs bunch.
const fuzzCellsPerRound = 12

// fuzzBudget is every fuzz cell's small, fixed budget.
var fuzzBudget = hammer.FuzzOptions{Patterns: 8, Locations: 1, DurationNS: 20e6}

// fuzzResult is one fuzz cell's output: the report and the session's
// exact counters, both part of the canonical digest.
type fuzzResult struct {
	Report   hammer.FuzzReport      `json:"report"`
	Counters hammer.SessionCounters `json:"counters"`
}

// fuzzSpec builds one fuzz grid on Raptor Lake x S3.
func fuzzSpec(name string, seed int64, cells int, sl *spanLog, parent int64) campaign.Spec {
	a, d := arch.RaptorLake(), arch.DIMMS3()
	var grid []campaign.Cell
	for i := 0; i < cells; i++ {
		cfg, label := hammer.Recommended(a), "rho-3bank"
		if i%6 == 5 {
			cfg, label = hammer.RecommendedSingleBank(a), "rho-1bank"
		}
		grid = append(grid, campaign.Cell{
			Key: fmt.Sprintf("c%02d/%s", i, label), Arch: a, DIMM: d, Config: cfg,
			Budget: campaign.Budget{Patterns: fuzzBudget.Patterns, Locations: fuzzBudget.Locations, DurationNS: fuzzBudget.DurationNS},
		})
	}
	return campaign.Spec{
		Name: name, Kind: campaign.KindAux, Seed: seed, Cells: grid,
		Exec: func(c campaign.Cell, seed int64) (any, error) {
			cell := sl.begin(name+"/"+c.Key, parent)
			defer sl.end(cell)
			id := sl.begin("hammer.NewSession", cell)
			s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
			sl.end(id)
			if err != nil {
				return nil, err
			}
			id = sl.begin("hammer.Session.Fuzz", cell)
			rep, err := s.Fuzz(c.Config, hammer.FuzzOptions{
				Patterns: c.Budget.Patterns, Locations: c.Budget.Locations, DurationNS: c.Budget.DurationNS,
			})
			sl.end(id)
			if err != nil {
				return nil, err
			}
			return fuzzResult{Report: rep, Counters: s.Counters()}, nil
		},
	}
}

func init() { campaign.RegisterResultType(fuzzResult{}) }

var fuzzHammer = &simWorkload{
	name: "fuzz-hammer",
	round: func(seed int64, r int, sl *spanLog, parent int64) []simSpec {
		s := fuzzSpec("fuzz-hammer", stats.SplitSeed(seed, fmt.Sprintf("fuzz-hammer/round/%d", r)), fuzzCellsPerRound, sl, parent)
		return []simSpec{{spec: s, scale: 1}}
	},
	warmup:       simSpec{spec: fuzzSpec("fuzz-hammer/warmup", defaultSeed, 1, nil, 0), scale: 1},
	pinnedWarmup: "cbcaa011817179b691a86f13f58a7dd96a0cf72cd2c02af47db61f8360162c49",
	pinnedRounds: []string{
		"2498b1c47ba54a6054647304be44fa344c871bd4fa351c23635500f6365fddf7",
		"e7fa821b7af483b9b3feb7e48bcef73752e5acd96db7cad2e694489746cb939e",
		"2f859572d138d93ee6768ada5a95e3e6b72d3b47a2b7d691786242bac1c0465f",
		"0ef2e62beb70dca13d6922393a54da583946ec010138302aa4c2027fcea54717",
	},
	minRounds: 9, // 108 cells: a p90 with 10 beyond it
	counts: func(results []any) map[string]uint64 {
		sum := sumCounters(results)
		return map[string]uint64{
			"acts": sum.Dram.ACTs, "refs": sum.Dram.REFs,
			"trr_triggers": sum.Dram.TRRTriggers, "flips": sum.Dram.Flips,
		}
	},
}

// sumCounters adds up the fuzz cells' session counters. The device
// keeps only the last trial's flips across resets, so flips come from
// the reports.
func sumCounters(results []any) hammer.SessionCounters {
	var sum hammer.SessionCounters
	for _, v := range results {
		r := v.(fuzzResult)
		c := r.Counters
		sum.Dram.ACTs += c.Dram.ACTs
		sum.Dram.REFs += c.Dram.REFs
		sum.Dram.TRRTriggers += c.Dram.TRRTriggers
		sum.Dram.Flips += uint64(r.Report.TotalFlips)
		sum.Ctrl.Accesses += c.Ctrl.Accesses
		sum.Ctrl.RowHits += c.Ctrl.RowHits
		sum.Ctrl.DecodeHits += c.Ctrl.DecodeHits
		sum.Ctrl.DecodeMisses += c.Ctrl.DecodeMisses
		sum.PatternsHammered += c.PatternsHammered
		sum.ProgramBuilds += c.ProgramBuilds
		sum.ProgramCacheHits += c.ProgramCacheHits
		sum.PayloadCompiles += c.PayloadCompiles
		sum.PayloadCacheHits += c.PayloadCacheHits
		sum.PayloadBatches += c.PayloadBatches
	}
	return sum
}

func runFuzzHammer(e *env) error {
	return runSim(e, fuzzHammer, fuzzLayers)
}

// fuzzLayers reports the hammer, cpu, dram and memctrl layers from the
// traced phase's session counters and spans.
func fuzzLayers(e *env, p *phase) {
	var all []any
	for _, r := range p.rounds {
		all = append(all, r.results...)
	}
	sum := sumCounters(all)
	e.set("dram.acts", float64(sum.Dram.ACTs))
	e.set("dram.refs", float64(sum.Dram.REFs))
	e.set("dram.trr_triggers", float64(sum.Dram.TRRTriggers))
	e.set("dram.flips", float64(sum.Dram.Flips))
	e.set("memctrl.accesses", float64(sum.Ctrl.Accesses))
	e.set("memctrl.row_hit_ratio", ratio(sum.Ctrl.RowHits, sum.Ctrl.Accesses))
	e.set("memctrl.decode_hit_ratio", ratio(sum.Ctrl.DecodeHits, sum.Ctrl.DecodeHits+sum.Ctrl.DecodeMisses))
	e.set("hammer.patterns", float64(sum.PatternsHammered))
	progLookups := sum.ProgramBuilds + sum.ProgramCacheHits
	e.set("hammer.program_cache_lookups", float64(progLookups))
	e.set("hammer.program_cache_hit_ratio", ratio(sum.ProgramCacheHits, progLookups))
	payLookups := sum.PayloadCompiles + sum.PayloadCacheHits
	e.set("hammer.payload_cache_lookups", float64(payLookups))
	e.set("hammer.payload_cache_hit_ratio", ratio(sum.PayloadCacheHits, payLookups))
	e.set("cpu.payload_batches", float64(sum.PayloadBatches))
	e.set("cpu.acts_per_batch", ratio(sum.Dram.ACTs, sum.PayloadBatches))
	acts, _ := roundMedian(p.perRound(func(r roundStats) float64 {
		return float64(sumCounters(r.results).Dram.ACTs) / r.wall.Seconds()
	}))
	e.set("hammer.sim_acts_per_s", acts)
	e.set("hammer.session_new_ms", percentileOrZero(e, e.spans.durationsMS("hammer.NewSession"), 0.5))
	e.set("hammer.fuzz_ms_p50", percentileOrZero(e, e.spans.durationsMS("hammer.Session.Fuzz"), 0.5))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// percentileOrZero is a per-layer percentile: with too few samples it
// reads 0 and says so in the notes.
func percentileOrZero(e *env, xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		e.note("%v: reported as 0", err)
		return 0
	}
	return v
}
