package main

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"wlcache/internal/expt"
	"wlcache/internal/isa"
	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/sim"
	"wlcache/internal/workload"
)

// workers is the sweep worker count: one per core of the 2-vCPU
// reference host, and what the load generator may use at most.
const workers = 2

// sweepCell is one (design, options, workload, trace) cell. Every cell
// builds a fresh design, so it starts with empty caches.
type sweepCell struct {
	kind expt.Kind
	opts expt.Options
	wl   string
	src  power.Source
}

func (c sweepCell) id() string { return fmt.Sprintf("%s/%s/%s", c.kind, c.wl, c.src) }

// figureCells is the figure sweep: the designs the main figures
// compare × all 23 kernels × the two RF traces, design-major like the
// experiment sweeps.
func figureCells() []sweepCell {
	var cells []sweepCell
	for _, k := range expt.FigureKinds() {
		for _, wl := range workload.Names() {
			for _, src := range sweepTraces() {
				cells = append(cells, sweepCell{kind: k, wl: wl, src: src})
			}
		}
	}
	return cells
}

// sweepRun is one pass of runner.RunCells over a cell list.
type sweepRun struct {
	wall    time.Duration
	results []sim.Result
	errs    []error
	doneAt  []time.Duration // submission → outcome
	hostDur []time.Duration // runner-measured cell time
	wait    []time.Duration // runner queue wait
	traces  []*cellTrace    // traced passes only
}

// runSweep runs cells through runner.RunCells with the sweep worker
// count and no journal. Untraced cells are exactly the production
// cells (expt.RunnerCell); traced cells rebuild the same call chain
// with spans around each layer.
func runSweep(cells []sweepCell, tier sim.Tier, traced bool) (*sweepRun, error) {
	cfg := sim.DefaultConfig()
	cfg.Tier = tier
	n := len(cells)
	r := &sweepRun{
		doneAt:  make([]time.Duration, n),
		hostDur: make([]time.Duration, n),
		wait:    make([]time.Duration, n),
	}
	rcells := make([]runner.Cell, n)
	if traced {
		r.traces = make([]*cellTrace, n)
	}
	for i, c := range cells {
		if traced {
			r.traces[i] = newCellTrace()
			rcells[i] = tracedCell(c, cfg, r.traces[i])
		} else {
			rcells[i] = expt.RunnerCell(c.kind, c.opts, c.wl, 1, c.src, cfg)
		}
		rcells[i].Optional = true // a failing cell is counted, not fatal
	}
	var mu sync.Mutex
	start := time.Now()
	rep, err := runner.RunCells(context.Background(), runner.Config{
		Workers: workers,
		Engine:  sim.EngineVersion,
		OnCell: func(d runner.CellDone) {
			at := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			r.doneAt[d.Index], r.hostDur[d.Index], r.wait[d.Index] = at, d.Dur, d.Wait
		},
	}, rcells)
	r.wall = time.Since(start)
	r.results, r.errs = rep.Results, rep.Errs
	return r, err
}

// tracedCell is expt.Run with spans: the cell, the build step
// (expt.NewDesign + sim.New), sim.Run and its program callback, and the
// wrapped Machine and Design boundaries.
func tracedCell(c sweepCell, cfg sim.Config, t *cellTrace) runner.Cell {
	return runner.Cell{ID: c.id(), Run: func(context.Context) (sim.Result, error) {
		start := nanotime()
		w, ok := workload.ByName(c.wl)
		if !ok {
			return sim.Result{}, fmt.Errorf("unknown workload %q", c.wl)
		}
		cfg := cfg
		cfg.Trace = power.Get(c.src)
		b0 := nanotime()
		design, nvm := expt.NewDesign(c.kind, c.opts)
		wrapped, err := wrapDesign(design, t)
		if err != nil {
			return sim.Result{}, err
		}
		s, err := sim.New(cfg, wrapped, nvm)
		built := nanotime()
		t.buildNS = built - b0
		if err != nil {
			t.wallNS = built - start
			return sim.Result{}, err
		}
		res, err := s.Run(w.Name, func(m isa.Machine) uint32 {
			p0 := nanotime()
			t.inProgram = true
			sum := w.Run(&tracedMachine{m: m, t: t}, expt.DefaultScale)
			t.inProgram = false
			t.programNS = nanotime() - p0
			return sum
		})
		end := nanotime()
		t.runNS, t.wallNS = end-built, end-start
		return res, err
	}}
}

// rfParams are the synthesis parameters of the built-in RF traces the
// sweeps run under; set-up re-synthesizes them and checks each against
// power.Get, so a drifted copy fails loudly instead of timing the
// wrong work.
var rfParams = map[power.Source]struct {
	seed             int64
	mean, vol, deadP float64
}{
	power.Trace1: {1, 13.0e-3, 0.55, 0.06},
	power.Trace3: {3, 5.0e-3, 1.10, 0.30},
}

// setupSweep is the sweeps' set-up: trace synthesis and reference load.
func setupSweep(dir string) (*reference, error) {
	for _, src := range sweepTraces() {
		p := rfParams[src]
		t := power.SynthesizeRF(string(src), p.seed, p.mean, p.vol, p.deadP)
		if !slices.Equal(t.Samples, power.Get(src).Samples) {
			return nil, fmt.Errorf("trace %s: set-up synthesis differs from power.Get", src)
		}
	}
	return loadReference(dir)
}

// timeSetup takes reps samples of set-up time and returns their median
// in seconds per set-up, plus the last set-up's result. Each sample
// starts from a collected heap and times batch set-ups in a row, so a
// garbage collection that falls into one set-up is shared by the batch
// instead of deciding the sample.
func timeSetup[T any](reps, batch int, setup func() (T, error)) (float64, T, error) {
	var last T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		for j := 0; j < batch; j++ {
			v, err := setup()
			if err != nil {
				return 0, last, err
			}
			last = v
		}
		secs = append(secs, time.Since(start).Seconds()/float64(batch))
	}
	return median(secs), last, nil
}

// A sweep run times setupReps samples of setupBatch set-ups each: one
// set-up takes about 10 ms, most of it allocation-heavy JSON decoding
// whose single-shot time swings by ±40 % with the garbage collector.
const (
	setupReps  = 9
	setupBatch = 10
)

// checkSweep compares every cell of a pass with the reference.
func checkSweep(ref *reference, cells []sweepCell, r *sweepRun, tier sim.Tier, t *tally) {
	for i, c := range cells {
		t.note(ref.checkCell(goldenCell(c, r.results[i], r.errs[i]), tier))
	}
}

// gcStats samples the Go runtime's GC CPU time, total CPU time and
// cumulative heap allocation.
type gcStats struct{ gcCPU, totalCPU, allocBytes float64 }

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return gcStats{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// sweepWorkload runs the figure sweep at one tier: untraced passes for
// the end-to-end metrics, or paired untraced/traced passes for the
// per-layer split.
func sweepWorkload(env *runEnv, tier sim.Tier) (*outcome, error) {
	setupS, ref, err := timeSetup(setupReps, setupBatch, func() (*reference, error) { return setupSweep(env.refDir) })
	if err != nil {
		return nil, err
	}
	cells := figureCells()
	out := newOutcome(tier)
	out.set("setup_s", setupS, setupReps*setupBatch)
	out.notApplicable(serveOnly...)
	if env.trace {
		drift := 0.0
		err := layerRun(cells, tier, env.seconds, env.seed, func(_ int, g expt.GoldenCell) error {
			drift = max(drift, ref.energyDrift(g))
			return ref.checkCell(g, tier)
		}, out)
		out.set("sim.fast_energy_rel_err_max", drift, out.samples["cell.host_ms_p50"])
		out.set("runner.reuse_ratio", 0, len(cells))
		return out, err
	}
	// Every figure is a median over passes, so a pass slowed by the host
	// moves it less than it would move a pooled sample.
	var rates, minstr, p50s, p90s []float64
	start := time.Now()
	for len(rates) == 0 || time.Since(start) < env.seconds {
		r, err := runSweep(cells, tier, false)
		if err != nil {
			return nil, err
		}
		checkSweep(ref, cells, r, tier, &out.tally)
		rates = append(rates, float64(len(cells))/r.wall.Seconds())
		minstr = append(minstr, float64(instructions(r.results))/1e6/r.wall.Seconds())
		latMS := make([]float64, len(cells))
		for i, d := range r.doneAt {
			latMS[i] = ms(d)
		}
		p50, err := percentile(latMS, 50)
		if err != nil {
			return nil, err
		}
		p90, err := percentile(latMS, 90)
		if err != nil {
			return nil, err
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
	}
	out.set("cells_per_s", median(rates), len(rates))
	out.set("sim_minstr_per_s", median(minstr), len(minstr))
	out.set("peak_rss_mb", peakRSSMB(), 1)
	out.set("latency_p50_ms", median(p50s), len(p50s)*len(cells))
	out.set("latency_p90_ms", median(p90s), len(p90s)*len(cells))
	return out, nil
}

// layerRun alternates untraced and traced passes over cells until
// runFor is spent (at least one pair). The untraced passes give the
// runner and Go runtime figures and the base of the tracing overhead;
// the traced passes give the layer split. check verifies each untraced
// cell; each traced cell must reproduce its untraced twin bit for bit.
func layerRun(cells []sweepCell, tier sim.Tier, runFor time.Duration, seed int64, check func(i int, g expt.GoldenCell) error, out *outcome) error {
	var (
		timed, counted       layerAgg
		untracedWall, traced time.Duration
		busy                 time.Duration
		hostMS, waitMS       []float64
		gc                   gcStats
	)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < runFor; pass++ {
		g0 := readGC()
		u, err := runSweep(cells, tier, false)
		if err != nil {
			return err
		}
		g1 := readGC()
		gc.gcCPU += g1.gcCPU - g0.gcCPU
		gc.totalCPU += g1.totalCPU - g0.totalCPU
		gc.allocBytes += g1.allocBytes - g0.allocBytes
		untracedWall += u.wall
		for i := range cells {
			busy += u.hostDur[i]
			hostMS = append(hostMS, ms(u.hostDur[i]))
			waitMS = append(waitMS, ms(u.wait[i]))
		}
		tr, err := runSweep(cells, tier, true)
		if err != nil {
			return err
		}
		traced += tr.wall
		for i, c := range cells {
			ug := goldenCell(c, u.results[i], u.errs[i])
			tg := goldenCell(c, tr.results[i], tr.errs[i])
			out.tally.note(check(i, ug))
			out.tally.note(sameOutcome(ug, tg, tr.results[i], tr.traces[i]))
			timed.add(tr.traces[i], tr.results[i])
			if pass == 0 {
				counted.add(tr.traces[i], tr.results[i])
			}
		}
	}
	out.set("runner.worker_util", busy.Seconds()/(workers*untracedWall.Seconds()), len(hostMS))
	if err := out.setPercentiles(waitMS, "runner.queue_wait_ms_p50", ""); err != nil {
		return err
	}
	if err := out.setPercentiles(hostMS, "cell.host_ms_p50", "cell.host_ms_p90"); err != nil {
		return err
	}
	out.set("go.gc_cpu_share", gc.gcCPU/gc.totalCPU, len(hostMS))
	out.set("go.alloc_bytes_per_cell", gc.allocBytes/float64(len(hostMS)), len(hostMS))
	out.set("trace.overhead_ratio", traced.Seconds()/untracedWall.Seconds(), timed.cells)
	timed.report(out, counted)
	probePower(seed, counted.spacingPS(), out)
	return nil
}

// sameOutcome is the traced run's fidelity check: the traced cell's
// flattened result (or error) equals the untraced cell's, and the
// wrapper counted exactly the loads and stores the simulator did.
func sameOutcome(u, tc expt.GoldenCell, res sim.Result, t *cellTrace) error {
	if u.Err != tc.Err || !maps.Equal(u.Fields, tc.Fields) {
		return fmt.Errorf("%s: traced result differs from untraced", u.ID())
	}
	if tc.Err == "" && (uint64(t.loads) != res.Loads || uint64(t.stores) != res.Stores) {
		return fmt.Errorf("%s: traced machine counted %d loads/%d stores, simulator %d/%d",
			u.ID(), t.loads, t.stores, res.Loads, res.Stores)
	}
	return nil
}

func instructions(rs []sim.Result) uint64 {
	var n uint64
	for _, r := range rs {
		n += r.Instructions
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
