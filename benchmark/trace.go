package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/experiments"
	"rhohammer/internal/mapping"
	"rhohammer/internal/mem"
	"rhohammer/internal/stats"
	"rhohammer/internal/store"
)

// ---------------------------------------------------------------- spans

// span is one timed call from the benchmark into a layer. Spans of one
// job or cell share the job's or cell's span as their parent.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced code paths pass nil.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	index map[int64]int
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), index: map[int64]int{}}
}

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, parent int64) int64 {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.index[id] = len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNS: now})
	return id
}

// end closes a span.
func (l *spanLog) end(id int64) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[l.index[id]].EndNS = now
}

// durationsMS returns the durations of every closed span with the name.
func (l *spanLog) durationsMS(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

func (l *spanLog) writeJSONL(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ---------------------------------------------------------------- CPU profile

// profiler holds a running CPU profile.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// profileShares is a profile summarised as flat CPU time per package.
type profileShares struct {
	raw   []byte
	flat  map[string]int64 // package -> flat CPU nanoseconds
	total int64
}

// share is a package's flat share of all sampled CPU time.
func (s *profileShares) share(pkg string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.flat[pkg]) / float64(s.total)
}

func (p *profiler) stop() (*profileShares, error) {
	pprof.StopCPUProfile()
	raw := p.buf.Bytes()
	flat, err := flatByPackage(raw)
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	s := &profileShares{raw: raw, flat: flat}
	for _, v := range flat {
		s.total += v
	}
	return s, nil
}

// flatByPackage decodes a gzipped pprof profile with the standard
// library alone and sums each sample's CPU time onto the package of
// its leaf function, which is pprof's flat attribution.
func flatByPackage(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> leaf function id
		samples   [][2][]uint64         // location ids, values
		valueKind []int64               // sample_type type string indices
	)
	err = eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					valueKind = append(valueKind, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs, vals []uint64
			err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, wt, v, b)
				case 2:
					vals = appendVarints(vals, wt, v, b)
				}
				return nil
			})
			samples = append(samples, [2][]uint64{locs, vals})
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if first {
						first = false
						return eachField(b, func(n, _ int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; take the
	// nanoseconds column.
	col := 0
	for i, k := range valueKind {
		if k >= 0 && int(k) < len(strs) && strs[k] == "cpu" {
			col = i
		}
	}
	flat := map[string]int64{}
	for _, s := range samples {
		if len(s[0]) == 0 || col >= len(s[1]) {
			continue
		}
		name := "?"
		if idx, ok := funcName[locFunc[s[0][0]]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		flat[packageOf(name)] += int64(s[1][col])
	}
	return flat, nil
}

// packageOf maps a symbol such as "rhohammer/internal/cpu.(*Engine).Run"
// to its import path "rhohammer/internal/cpu".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling f with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, f func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// layerPackages maps the *_share metrics of the traced phase to the
// packages they sum.
var layerPackages = map[string]string{
	"cpu.cpu_share":     "rhohammer/internal/cpu",
	"dram.cpu_share":    "rhohammer/internal/dram",
	"memctrl.cpu_share": "rhohammer/internal/memctrl",
	"serve.cpu_share":   "rhohammer/internal/serve",
}

// mappingPackages maps the *_share metrics of the mapping probe to the
// packages they sum.
var mappingPackages = map[string]string{
	"mem.cpu_share":     "rhohammer/internal/mem",
	"reverse.cpu_share": "rhohammer/internal/reverse",
	"timing.cpu_share":  "rhohammer/internal/timing",
}

// roadmapShares are the flat shares the ROADMAP's profile reports, so
// the traced run can state where it disagrees: fig9 spent 65% in cpu,
// ~20% in dram and ~10% in math/rand (set against fuzz-hammer's traced
// phase); Table5 90% in mem.NewPool (set against the mapping probe).
var roadmapShares = map[string]map[string]float64{
	"fuzz-hammer":   {"rhohammer/internal/cpu": 0.65, "rhohammer/internal/dram": 0.20, "math/rand": 0.10},
	"mapping probe": {"rhohammer/internal/mem": 0.90},
}

// ---------------------------------------------------------------- probes

// probePoolDispatch times campaign.Pool.Run over no-op cells: the
// scheduler's own per-cell cost.
func probePoolDispatch(workers int) float64 {
	const cells, reps = 2000, 5
	grid := make([]campaign.Cell, cells)
	for i := range grid {
		grid[i] = campaign.Cell{Key: fmt.Sprintf("noop%d", i)}
	}
	spec := campaign.Spec{Name: "noop", Cells: grid, Exec: func(campaign.Cell, int64) (any, error) { return nil, nil }}
	pool := campaign.NewPool(workers)
	defer pool.Close()
	var us []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := pool.Run(spec, campaign.RunOpts{}); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(start).Microseconds())/cells)
	}
	return median(us)
}

// probeNewPool times mem.NewPool at each platform's mapping size for
// the default DIMM, returning the median milliseconds and allocated MB
// per call.
func probeNewPool() (ms, mb float64, err error) {
	var times, allocs []float64
	for _, a := range arch.All() {
		m, ok := mapping.ForPlatform(a.MappingFamily, experiments.DefaultDIMM().SizeGiB)
		if !ok {
			return 0, 0, fmt.Errorf("no mapping for %s", a.Name)
		}
		before := readRuntime()
		start := time.Now()
		mem.NewPool(m.Size(), 0.7, stats.NewRand(defaultSeed))
		times = append(times, float64(time.Since(start).Microseconds())/1e3)
		allocs = append(allocs, (readRuntime().allocBytes-before.allocBytes)/1e6)
	}
	return median(times), median(allocs), nil
}

// probeMapping runs one reverse-map round, the registered table4 grid
// and four table5 cells at the default seed, on a fresh pool under its
// own CPU profile. It checks the round's pinned digest and returns the
// round's wall time and the profile. The mem, reverse and timing layers
// are measured here on every workload, since only reverse-map, which
// runs by hand, calls them in its measured phase.
func probeMapping(e *env) (ms float64, shares *profileShares, err error) {
	pool := campaign.NewPool(e.workers)
	defer pool.Close()
	prof, err := startProfile()
	if err != nil {
		return 0, nil, err
	}
	rs, err := runRound(&e.checks, pool, reverseMap.round(defaultSeed, 0, nil, 0))
	shares, perr := prof.stop()
	if err != nil {
		return 0, nil, err
	}
	if perr != nil {
		return 0, nil, perr
	}
	if rs.record.Digest != reverseMap.pinnedRounds[0] {
		e.checks.fail("mapping probe digest %s, pinned %s", rs.record.Digest, shortDigest(reverseMap.pinnedRounds[0]))
	} else {
		e.checks.ok()
	}
	return float64(rs.wall.Microseconds()) / 1e3, shares, nil
}

// probeAppendCell times store.AppendCell, whose fsync is each journaled
// cell's commit point, with results of the given size.
func probeAppendCell(dir string, resultBytes int) (p50, maxUS float64, err error) {
	const appends = 200
	st, _, err := store.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	if err := st.AppendJob(store.JobMeta{ID: "probe-000001", Spec: "probe", Seed: 1, Scale: 1, Created: time.Now()}); err != nil {
		return 0, 0, err
	}
	payload := bytes.Repeat([]byte{0xa5}, resultBytes)
	var us []float64
	for i := 0; i < appends; i++ {
		c := store.CellResult{Index: i, Key: fmt.Sprintf("cell%d", i), Stat: campaign.CellStat{Key: fmt.Sprintf("cell%d", i), Attempts: 1}, Result: payload}
		start := time.Now()
		if err := st.AppendCell("probe-000001", c); err != nil {
			return 0, 0, err
		}
		d := float64(time.Since(start).Nanoseconds()) / 1e3
		us = append(us, d)
		maxUS = max(maxUS, d)
	}
	p50, err = percentile(us, 0.5)
	return p50, maxUS, err
}

// shareTable writes a profile's flat CPU share per package, largest
// first, and the ROADMAP's figures beside the measured ones.
func shareTable(w io.Writer, title string, shares *profileShares, roadmap map[string]float64) {
	fmt.Fprintf(w, "# flat CPU share per package, %s (%.2f s sampled)\n", title, float64(shares.total)/1e9)
	pkgs := sortedKeys(shares.flat)
	sort.SliceStable(pkgs, func(i, j int) bool { return shares.flat[pkgs[i]] > shares.flat[pkgs[j]] })
	for _, p := range pkgs {
		fmt.Fprintf(w, "%7.2f%%  %s\n", 100*shares.share(p), p)
	}
	if roadmap != nil {
		fmt.Fprintf(w, "# against the ROADMAP profile\n")
		for _, p := range sortedKeys(roadmap) {
			fmt.Fprintf(w, "# %-28s ROADMAP %5.1f%%  measured %5.1f%%\n", p, 100*roadmap[p], 100*shares.share(p))
		}
	}
}

// finishTrace runs the probes, fills the metrics no workload-specific
// layer set (0: the workload does not call that layer), and writes the
// traced run's artifacts: spans, profile, CPU-share table, probes and
// per-layer metrics.
func finishTrace(e *env, workload string, shares *profileShares, resultBytes int) error {
	dir := e.artifactDir(workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, pkg := range layerPackages {
		e.set(name, shares.share(pkg))
	}
	roundMS, mapShares, err := probeMapping(e)
	if err != nil {
		return err
	}
	e.set("reverse.mapping_round_ms", roundMS)
	for name, pkg := range mappingPackages {
		e.set(name, mapShares.share(pkg))
	}
	e.set("campaign.pool_dispatch_us", probePoolDispatch(e.workers))
	poolMS, poolMB, err := probeNewPool()
	if err != nil {
		return err
	}
	e.set("mem.new_pool_ms", poolMS)
	e.set("mem.new_pool_alloc_mb", poolMB)
	storeDir, err := os.MkdirTemp(e.out, "rhobench-store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	appendP50, appendMax, err := probeAppendCell(storeDir, resultBytes)
	if err != nil {
		return err
	}
	e.set("store.append_cell_us_p50", appendP50)
	e.note("probes: pool dispatch %.2f us/cell; mem.NewPool %.1f ms, %.1f MB; mapping round %.0f ms; store.AppendCell p50 %.0f us, max %.0f us (%d-byte results)",
		e.metrics["campaign.pool_dispatch_us"], poolMS, poolMB, roundMS, appendP50, appendMax, resultBytes)
	for _, d := range perLayer {
		if _, ok := e.metrics[d.Name]; !ok {
			e.metrics[d.Name] = 0
		}
	}

	if err := e.spans.writeJSONL(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), shares.raw, 0o644); err != nil {
		return err
	}
	var tab strings.Builder
	shareTable(&tab, fmt.Sprintf("%s, seed %d", workload, e.seed), shares, roadmapShares[workload])
	shareTable(&tab, "mapping probe", mapShares, roadmapShares["mapping probe"])
	if err := os.WriteFile(filepath.Join(dir, "cpu_shares.txt"), []byte(tab.String()), 0o644); err != nil {
		return err
	}
	type layerOut struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Moves string  `json:"moves"`
	}
	var layers []layerOut
	for _, d := range perLayer {
		layers = append(layers, layerOut{d.Name, e.metrics[d.Name], d.Unit, d.Moves})
	}
	data, err := json.MarshalIndent(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Notes    []string   `json:"notes"`
		Layers   []layerOut `json:"layers"`
	}{workload, e.seed, e.notes, layers}, "", "  ")
	if err != nil {
		return err
	}
	e.note("traced-run artifacts in %s", dir)
	return os.WriteFile(filepath.Join(dir, "layers.json"), data, 0o644)
}
