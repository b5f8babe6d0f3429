package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wlcache/internal/expt"
	"wlcache/internal/obs"
	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/serve"
	"wlcache/internal/sim"
)

// The serve-mixed workload drives a wlserve process built from the
// tree with a closed loop of `workers` clients. Each client submits the
// next spec of a seeded stream as soon as its previous sweep is done.
//
// Every spec is one design × five kernels × one trace × one grid point
// (maxline, dqcap): four kernels a warm-up sweep computed at that point
// (reused: journal reload, shared store, NDJSON streaming) and one that
// no sweep has computed there yet (fresh: compute, journal append and
// fsync), at a seeded position. Every 25th spec also carries eager-wb,
// whose cells are pinned as infeasible by their error string.
//
// These shares are those of the repository's one recorded load mix,
// load.DefaultSpecs as wlload submits it by default (8 sweeps
// alternating the 78-cell golden matrix and its 24-cell figure subset):
// 318 of its 392 feasible cells are reused (81 %; 4 of 5 here) and 16
// of its 408 cells are eager-wb's infeasible ones (3.9 %; 5 of 130
// here). What differs is that every spec here carries the mix, so
// sweep latency is one population rather than the default mix's
// all-reused sweeps plus one computing sweep
// (TestServeMixMatchesRecordedLoad).
//
// The keys are every figure design × RF trace × grid point, 568 in all;
// the reused kernels are the four cheapest (fewest reference
// instructions), which keeps the warm-up short: a reused cell's cost in
// the service does not depend on its kernel. Each key supplies one spec
// per remaining kernel, 10 792 specs, several times what a run uses.

const (
	serveReused          = 4  // reused kernels per spec
	serveInfeasibleEvery = 25 // every n-th spec also carries eager-wb
	serveSetupReps       = 15 // server starts per set-up measurement
	serveReplayCells     = 128
)

// serveKey is one design/trace/grid point and its seeded order of
// fresh kernels.
type serveKey struct {
	design, trace string
	ml, dq        int
	fresh         []string
}

// servePlan is the seeded spec stream.
type servePlan struct {
	reused []string // the kernels the warm-up computes at every key
	keys   []serveKey
	order  []int // key rotation order
	slot   []int // per spec: where the fresh kernel goes among the reused
}

func newServePlan(seed int64, ref *reference) *servePlan {
	rng := rand.New(rand.NewSource(seed))
	names := ref.kernelsByCost()
	p := &servePlan{reused: names[:serveReused]}
	rest := names[serveReused:]
	for _, d := range expt.FigureKinds() {
		for _, src := range sweepTraces() {
			for ml := 1; ml <= 8; ml++ {
				for dq := 8; dq <= 16; dq++ {
					if ml == 6 && dq == 8 {
						continue // the paper default, which the golden-matrix sweeps own
					}
					k := serveKey{design: string(d), trace: string(src), ml: ml, dq: dq}
					for _, wi := range rng.Perm(len(rest)) {
						k.fresh = append(k.fresh, rest[wi])
					}
					p.keys = append(p.keys, k)
				}
			}
		}
	}
	p.order = rng.Perm(len(p.keys))
	p.slot = make([]int, len(p.keys)*len(rest))
	for i := range p.slot {
		p.slot[i] = rng.Intn(serveReused + 1)
	}
	return p
}

func (k serveKey) spec(kernels []string, infeasible bool) serve.Spec {
	designs := []string{k.design}
	if infeasible {
		designs = append(designs, string(expt.KindEagerWB))
	}
	return serve.Spec{
		Designs:   designs,
		Workloads: kernels,
		Traces:    []string{k.trace},
		Grid:      &serve.Grid{Maxline: []int{k.ml}, DQCap: []int{k.dq}},
	}
}

// warmup is one spec per key computing its reused kernels.
func (p *servePlan) warmup() ([]serve.Spec, []serveKey) {
	specs := make([]serve.Spec, len(p.keys))
	for i, k := range p.keys {
		specs[i] = k.spec(p.reused, false)
	}
	return specs, p.keys
}

// spec returns the i-th measured spec; ok is false once every key has
// used up its fresh kernels.
func (p *servePlan) spec(i int) (serve.Spec, serveKey, bool) {
	if i >= len(p.slot) {
		return serve.Spec{}, serveKey{}, false
	}
	k := p.keys[p.order[i%len(p.keys)]]
	fresh := k.fresh[i/len(p.keys)]
	s := p.slot[i]
	kernels := slices.Concat(p.reused[:s], []string{fresh}, p.reused[s:])
	return k.spec(kernels, i%serveInfeasibleEvery == 0), k, true
}

// server is one running wlserve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *serve.Client
	waited chan struct{}
	stderr lockedBuffer
	err    error // Wait result, valid once waited is closed
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() < 64<<10 {
		b.buf.Write(p)
	}
	return len(p), nil
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServer starts wlserve on a free loopback port over dataDir and
// returns once /readyz answers 200.
func startServer(bin, dataDir string) (*server, error) {
	s := &server{cmd: exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-log-level", "error"), waited: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even one that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wlserve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		s.err = s.cmd.Wait()
		close(s.waited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.waited:
		return nil, fmt.Errorf("wlserve exited before listening: %v: %s", s.err, s.stderr.String())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("wlserve did not start listening within 60s")
	}
	s.client = &serve.Client{Base: s.base, HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}}
	deadline := time.Now().Add(60 * time.Second)
	for s.client.Ready(context.Background()) != nil {
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("wlserve not ready within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// stop drains the server with SIGTERM (SIGKILL after 30s), waits for it
// to exit and returns its peak resident set in MB.
func (s *server) stop() float64 {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.waited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.waited
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// sweepObs is one submitted sweep as the client saw it.
type sweepObs struct {
	latency, accept, firstCell time.Duration
	gaps                       []time.Duration // before each reused-cell event
	computed                   []serve.Event
	key                        serveKey
	cells, reused              int
	instructions               uint64
	err                        error
}

// cellBook holds the flattened result of every cell the service has
// delivered, by cell ID (design, kernel, trace and grid point). Every
// later delivery of a cell, reused or not, must equal the first one
// exactly, so a store or journal that hands back another cell's result
// fails the run.
type cellBook struct {
	mu    sync.Mutex
	cells map[string]map[string]string
}

func newCellBook() *cellBook { return &cellBook{cells: map[string]map[string]string{}} }

// check records ev's result, or compares it with the one recorded.
func (b *cellBook) check(ev serve.Event) error {
	if ev.Error != "" || ev.Result == nil {
		return nil // pinned errors are checked against the reference
	}
	got := expt.FlattenResult(*ev.Result)
	b.mu.Lock()
	defer b.mu.Unlock()
	want, ok := b.cells[ev.ID]
	if !ok {
		b.cells[ev.ID] = got
		return nil
	}
	if !maps.Equal(got, want) {
		return fmt.Errorf("%s: %s result differs from the cell's first delivery", ev.ID, ev.Source)
	}
	return nil
}

// submit runs one sweep and checks every cell event against the
// reference and against earlier deliveries of the same cell.
func submit(c *serve.Client, spec serve.Spec, key serveKey, ref *reference, book *cellBook, rid string) sweepObs {
	o := sweepObs{key: key}
	t0 := time.Now()
	st, err := c.SubmitRequest(context.Background(), spec, rid)
	if err != nil {
		o.err = err
		return o
	}
	defer st.Close()
	o.accept = time.Since(t0)
	last := o.accept
	for {
		ev, err := st.Next()
		if err != nil {
			o.err = fmt.Errorf("stream ended before the done event: %w", err)
			return o
		}
		at := time.Since(t0)
		switch ev.Type {
		case serve.EventCell:
			if o.cells == 0 {
				o.firstCell = at
			}
			o.cells++
			err := ref.checkEvent(ev)
			if err == nil {
				err = book.check(ev)
			}
			if err != nil && o.err == nil {
				o.err = err
			}
			switch runner.CellSource(ev.Source) {
			case runner.SourceComputed:
				o.computed = append(o.computed, ev)
				o.instructions += ev.Result.Instructions
			case runner.SourceShared, runner.SourceJournal, runner.SourceDedup:
				o.reused++
				o.gaps = append(o.gaps, at-last)
			}
			last = at
		case serve.EventDone:
			o.latency = at
			if want := len(spec.Designs) * len(spec.Workloads); o.cells != want && o.err == nil {
				o.err = fmt.Errorf("sweep streamed %d cells, spec has %d", o.cells, want)
			}
			return o
		}
	}
}

// serveWorkload measures the service. Set-up is server start → /readyz
// (journal reload included), taken over serveSetupReps starts.
func serveWorkload(env *runEnv) (*outcome, error) {
	ref, err := loadReference(env.refDir)
	if err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(env.serveBin)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("wlserve binary: %w", err)
	}
	dataDir, err := filepath.Abs(filepath.Join(env.workDir, fmt.Sprintf("serve-data-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	plan := newServePlan(env.seed, ref)
	book := newCellBook()
	out := newOutcome(sim.TierExact)

	// Warm-up (untimed): the journals the measured server reloads.
	srv, err := startServer(bin, dataDir)
	if err != nil {
		return nil, err
	}
	werr := warmup(srv.client, plan, ref, book)
	srv.stop()
	if werr != nil {
		return nil, werr
	}

	// Only the start is timed; each earlier server is stopped first.
	starts := make([]float64, 0, serveSetupReps)
	for i := 0; i < serveSetupReps; i++ {
		if i > 0 {
			srv.stop()
		}
		t0 := time.Now()
		if srv, err = startServer(bin, dataDir); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	out.set("setup_s", median(starts), serveSetupReps)

	obsList, wall, exhausted := closedLoop(srv.client, plan, ref, book, env.seconds)
	prom, promErr := scrapeProm(srv.base)
	rss := srv.stop()
	if exhausted {
		return nil, errors.New("spec stream exhausted before the run time was spent")
	}
	if promErr != nil {
		return nil, promErr
	}

	var latMS, acceptMS, firstMS, gapUS []float64
	var cells, reused int
	var instr uint64
	for _, o := range obsList {
		out.tally.note(o.err)
		if o.err != nil {
			continue
		}
		latMS = append(latMS, ms(o.latency))
		acceptMS = append(acceptMS, ms(o.accept))
		firstMS = append(firstMS, ms(o.firstCell))
		for _, g := range o.gaps {
			gapUS = append(gapUS, float64(g)/float64(time.Microsecond))
		}
		cells += o.cells
		reused += o.reused
		instr += o.instructions
	}
	out.set("cells_per_s", float64(cells)/wall.Seconds(), len(obsList))
	out.set("sim_minstr_per_s", float64(instr)/1e6/wall.Seconds(), len(obsList))
	out.set("peak_rss_mb", rss, 1)
	if err := out.setPercentiles(latMS, "latency_p50_ms", "latency_p90_ms"); err != nil {
		return nil, err
	}
	if !env.trace {
		return out, nil
	}

	if err := out.setPercentiles(acceptMS, "serve.accept_ms_p50", ""); err != nil {
		return nil, err
	}
	if err := out.setPercentiles(firstMS, "serve.first_cell_p50_ms", ""); err != nil {
		return nil, err
	}
	if err := out.setPercentiles(gapUS, "serve.stream_gap_us_p50", ""); err != nil {
		return nil, err
	}
	out.set("runner.reuse_ratio", float64(reused)/float64(cells), cells)
	accepted := int(promValue(prom, "wlserve_sweeps_total", "state", "accepted"))
	for _, h := range []struct {
		name, family, outcome string
		population            int
	}{
		{"serve.queue_wait_us_p50", "wlserve_queue_wait_us", "", accepted},
		{"serve.cell_wait_us_p50", "wlserve_cell_wait_us", "", 0},
		{"serve.cell_us_p50.computed", "wlserve_cell_us", "computed", 0},
		{"serve.cell_us_p50.reused", "wlserve_cell_us", "from_shared", 0},
		{"journal.fsync_us_p50", "wlserve_journal_fsync_us", "", 0},
	} {
		v, n, err := histP50(prom, h.family, h.outcome, h.population)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", h.name, err)
		}
		out.set(h.name, v, n)
	}
	out.set("journal.appends", promValue(prom, "wlserve_journal_appends_total"), 1)
	reloadS, _, err := timeSetup(3, 1, func() (int, error) { return reloadJournals(dataDir) })
	if err != nil {
		return nil, err
	}
	out.set("journal.reload_ms", reloadS*1e3, 3)

	// The service's compute runs in another process, so its layer split
	// comes from replaying the cells it computed, in process.
	replay, served := replayCells(obsList)
	out.notApplicable("sim.fast_energy_rel_err_max")
	return out, layerRun(replay, sim.TierExact, 0, env.seed, func(i int, g expt.GoldenCell) error {
		if g.Err != "" || !maps.Equal(g.Fields, expt.FlattenResult(*served[i].Result)) {
			return fmt.Errorf("%s: in-process replay differs from the service's result", g.ID())
		}
		return nil
	}, out)
}

// warmup submits the warm-up specs from `workers` clients and fails on
// the first sweep that does not check out.
func warmup(c *serve.Client, plan *servePlan, ref *reference, book *cellBook) error {
	specs, keys := plan.warmup()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(specs); i += workers {
				if o := submit(c, specs[i], keys[i], ref, book, fmt.Sprintf("warmup-%d", i)); o.err != nil {
					errs[w] = fmt.Errorf("warm-up sweep %d: %w", i, o.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// closedLoop runs `workers` clients until the run time is spent and
// returns every sweep they completed, in submission order.
func closedLoop(c *serve.Client, plan *servePlan, ref *reference, book *cellBook, seconds time.Duration) ([]sweepObs, time.Duration, bool) {
	var (
		mu        sync.Mutex
		next      atomic.Int64
		exhausted atomic.Bool
		wg        sync.WaitGroup
	)
	byIndex := map[int]sweepObs{}
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < seconds {
				i := int(next.Add(1) - 1)
				spec, key, ok := plan.spec(i)
				if !ok {
					exhausted.Store(true)
					return
				}
				o := submit(c, spec, key, ref, book, fmt.Sprintf("sweep-%d", i))
				mu.Lock()
				byIndex[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	list := make([]sweepObs, 0, len(byIndex))
	for i := 0; i < len(byIndex); i++ {
		list = append(list, byIndex[i])
	}
	return list, wall, exhausted.Load()
}

// replayCells lists the first serveReplayCells cells the service
// computed, in submission order, with the events that carried them.
func replayCells(obsList []sweepObs) ([]sweepCell, []serve.Event) {
	var cells []sweepCell
	var evs []serve.Event
	for _, o := range obsList {
		for _, ev := range o.computed {
			if len(cells) == serveReplayCells {
				return cells, evs
			}
			cells = append(cells, sweepCell{
				kind: expt.Kind(ev.Kind), wl: ev.Workload, src: power.Source(ev.Trace),
				opts: expt.Options{Maxline: o.key.ml, DQCap: o.key.dq},
			})
			evs = append(evs, ev)
		}
	}
	return cells, evs
}

// scrapeProm fetches and validates the public /metrics exposition.
func scrapeProm(base string) ([]obs.PromSample, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return obs.ParsePrometheus(resp.Body)
}

// histP50 is the nearest-rank median of a log2-bucketed histogram
// family (optionally one outcome label): the upper bound of the bucket
// holding it, and the sample count. population, when larger than the
// histogram's count, adds unobserved zero samples: the server records
// an admission wait only for sweeps that queued, so every other
// accepted sweep waited zero.
func histP50(samples []obs.PromSample, family, outcome string, population int) (float64, int, error) {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	count := 0
	for _, s := range samples {
		if outcome != "" && s.Labels["outcome"] != outcome {
			continue
		}
		switch s.Name {
		case family + "_bucket":
			if s.Labels["le"] == "+Inf" {
				continue
			}
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("histogram %s: bad le %q", family, s.Labels["le"])
			}
			bs = append(bs, bucket{le, s.Value})
		case family + "_count":
			count = int(s.Value)
		}
	}
	n := max(count, population)
	zeros := n - count
	rank := (50*n + 99) / 100
	if n-rank < minBeyond {
		return 0, n, fmt.Errorf("histogram %s{%s} has %d samples, too few for a median", family, outcome, n)
	}
	if rank <= zeros {
		return 0, n, nil
	}
	for _, b := range bs {
		if float64(zeros)+b.cum >= float64(rank) {
			return b.le, n, nil
		}
	}
	return 0, n, fmt.Errorf("histogram %s{%s}: median beyond the last finite bucket", family, outcome)
}

// promValue is the value of the sample named name, with label key=val
// when key is given.
func promValue(samples []obs.PromSample, name string, labelKV ...string) float64 {
	for _, s := range samples {
		if s.Name == name && (len(labelKV) < 2 || s.Labels[labelKV[0]] == labelKV[1]) {
			return s.Value
		}
	}
	return 0
}

// reloadJournals reads every sweep journal in dir through
// runner.ReadJournal, as a restarting server does, and returns the
// number of records.
func reloadJournals(dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range paths {
		res, _, err := runner.ReadJournal(p, sim.EngineVersion)
		if err != nil {
			return 0, fmt.Errorf("reload %s: %w", p, err)
		}
		n += len(res)
	}
	return n, nil
}
