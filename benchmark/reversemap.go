package main

import (
	"fmt"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/experiments"
	"rhohammer/internal/stats"
)

// table5Scale is the registered table5 grid's scale; any scale below
// 0.5 gives its floor of 3 recovery runs per cell.
const table5Scale = 0.1

// registered builds a registered spec, keeping only the cells keep
// accepts (all when keep is nil), with each cell's Exec in a span.
func registered(name string, seed int64, scale float64, keep func(campaign.Cell) bool, sl *spanLog, parent int64) simSpec {
	e, ok := experiments.Registry.Lookup(name)
	if !ok {
		panic("rhobench: spec " + name + " is not registered")
	}
	s := e.Build(campaign.Params{Seed: seed, Scale: scale})
	if keep != nil {
		var cells []campaign.Cell
		for _, c := range s.Cells {
			if keep(c) {
				cells = append(cells, c)
			}
		}
		s.Cells = cells
	}
	s.Exec = tracedExec(sl, parent, name, s.Exec)
	return simSpec{spec: s, scale: scale}
}

// reverseMap's round is the whole table4 grid (six platform/size
// recoveries) plus four table5 cells that cover each tool and each
// platform once: (tool i, platform i+r). Every round thus costs about
// the same, about 4 s on two workers, where the whole table5 grid
// would take 10 s a round.
var reverseMap = &simWorkload{
	name: "reverse-map",
	round: func(seed int64, r int, sl *spanLog, parent int64) []simSpec {
		s := stats.SplitSeed(seed, fmt.Sprintf("reverse-map/round/%d", r))
		archs := arch.All()
		pick := map[string]bool{}
		for i, tool := range []string{"DRAMA", "DRAMDig", "DARE", "rhoHammer"} {
			pick[tool+"/"+archs[(i+r)%len(archs)].Name] = true
		}
		return []simSpec{
			registered("table4", s, 1, nil, sl, parent),
			registered("table5", s, table5Scale, func(c campaign.Cell) bool { return pick[c.Key] }, sl, parent),
		}
	},
	warmup: registered("table4", defaultSeed, 1, func(c campaign.Cell) bool {
		return c.Key == "Alder Lake/8GiB"
	}, nil, 0),
	pinnedWarmup: "27f9ff1d2dca7e401a465b8129f0e0bd3be81a375726c97fecb9bc8bce5af245",
	pinnedRounds: []string{
		"2c2c087c57c449a2a0a3e05f2f95b01388935554a78502308eaa7063711c354d",
		"6d6d471aa9030d9a064c7be6242cdbdf38e0ee91d7142adbef0d2abf784df403",
		"81a16adce8c444846b328431b2d6835b1900fcba4248bfa192856a181dda0715",
		"f9d063a3e03ebb4cae68e39cff387cd76d47e26276180e8d8b32835a4efdba35",
	},
	// Ten cells a round. The host's speed drifts over tens of seconds
	// and this allocation-bound workload feels it most, so a run takes
	// at least ten rounds, about 35 s, where five would give the p90.
	minRounds: 10,
}

func runReverseMap(e *env) error {
	return runSim(e, reverseMap, func(*env, *phase) {})
}
