// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks every simulated output against the
// committed reference (reference/), and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": 736, "failed": 0, "metrics": {"setup_s": {"value": 0.012, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer split from a
// separate traced run. A provenance report (host, commit, engine, tier,
// sample counts, why the workload was chosen) precedes that line.
//
// Run it from the repository root through run.sh, which builds this
// program and wlserve from the tree first:
//
//	bash perfbench/run.sh --workload sweep-exact --seed 1 --seconds 20 --trace 0
//
// --write-reference regenerates reference/ from the current tree.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"wlcache/internal/hostinfo"
	"wlcache/internal/sim"
)

// metricDef declares one reported metric. The tables must match
// BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

var perLayer = []metricDef{
	{"fail_frac", "ratio"},
	{"runner.worker_util", "ratio"},
	{"runner.queue_wait_ms_p50", "ms"},
	{"cell.host_ms_p50", "ms"},
	{"cell.host_ms_p90", "ms"},
	{"expt.build_us", "us"},
	{"workload.self_share", "ratio"},
	{"workload.ns_per_call", "ns"},
	{"workload.loads", "count"},
	{"workload.stores", "count"},
	{"workload.compute_calls", "count"},
	{"sim.self_share", "ratio"},
	{"sim.ns_per_instr", "ns"},
	{"sim.instructions", "count"},
	{"sim.outages", "count"},
	{"sim.exec_s", "s"},
	{"sim.fast_energy_rel_err_max", "ratio"},
	{"power.integrate_ns", "ns"},
	{"power.time_to_harvest_ns", "ns"},
	{"energy.step_ns", "ns"},
	{"design.self_share", "ratio"},
	{"design.access_ns", "ns"},
	{"design.checkpoint_us", "us"},
	{"design.restore_us", "us"},
	{"design.accesses", "count"},
	{"design.checkpoints", "count"},
	{"design.writebacks", "count"},
	{"design.stalls", "count"},
	{"mem.nvm_read_words", "count"},
	{"mem.nvm_write_words", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"go.alloc_bytes_per_cell", "B"},
	{"journal.appends", "count"},
	{"journal.fsync_us_p50", "us"},
	{"journal.reload_ms", "ms"},
	{"runner.reuse_ratio", "ratio"},
	{"serve.accept_ms_p50", "ms"},
	{"serve.first_cell_p50_ms", "ms"},
	{"serve.stream_gap_us_p50", "us"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.cell_wait_us_p50", "us"},
	{"serve.cell_us_p50.computed", "us"},
	{"serve.cell_us_p50.reused", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// serveOnly are the per-layer metrics only the service workload has;
// the in-process sweeps report them as 0 and list them as not
// applicable.
var serveOnly = []string{
	"journal.appends", "journal.fsync_us_p50", "journal.reload_ms",
	"serve.accept_ms_p50", "serve.first_cell_p50_ms", "serve.stream_gap_us_p50",
	"serve.queue_wait_us_p50", "serve.cell_wait_us_p50",
	"serve.cell_us_p50.computed", "serve.cell_us_p50.reused",
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name, why string
	run       func(*runEnv) (*outcome, error)
}

var workloads = []workloadDef{
	{"sweep-exact",
		"the figure sweep wlbench -experiment spends its time on, at the exact tier: sim engine and power/energy integration run per event",
		func(e *runEnv) (*outcome, error) { return sweepWorkload(e, sim.TierExact) }},
	{"sweep-fast",
		"the same 184 cells at the fast tier: power integration is batched per settle window, so the shared design model dominates",
		func(e *runEnv) (*outcome, error) { return sweepWorkload(e, sim.TierFast) }},
	{"serve-mixed",
		"wlserve under 2 closed-loop clients whose sweeps mix fresh cells (compute, journal fsync) with reused ones (shared store, NDJSON stream)",
		serveWorkload},
}

// runEnv is one invocation's settings.
type runEnv struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	refDir   string // committed reference
	serveBin string // wlserve built from the tree
	workDir  string // working files, inside the checkout
}

// outcome is what a workload measured.
type outcome struct {
	tally   tally
	tier    string
	values  map[string]float64
	samples map[string]int
	na      map[string]bool
}

func newOutcome(tier sim.Tier) *outcome {
	return &outcome{tier: tier.String(), values: map[string]float64{}, samples: map[string]int{}, na: map[string]bool{}}
}

// set records a metric and the number of samples behind it.
func (o *outcome) set(name string, v float64, samples int) {
	o.values[name] = v
	o.samples[name] = samples
	delete(o.na, name)
}

// notApplicable marks metrics this workload does not exercise; they
// print as 0 and are listed in the report.
func (o *outcome) notApplicable(names ...string) {
	for _, n := range names {
		o.na[n] = true
	}
}

// setPercentiles sets the nearest-rank p50 and p90 of xs under the
// given names ("" skips one).
func (o *outcome) setPercentiles(xs []float64, p50, p90 string) error {
	for _, m := range []struct {
		name string
		p    int
	}{{p50, 50}, {p90, 90}} {
		if m.name == "" {
			continue
		}
		v, err := percentile(xs, m.p)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		o.set(m.name, v, len(xs))
	}
	return nil
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics selects the declared metrics of one mode. A declared metric
// the workload neither measured nor marked not applicable is an error.
func (o *outcome) metrics(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !o.na[d.name] {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		name     = flags.String("workload", "", "workload name")
		seed     = flags.Int64("seed", 1, "workload seed")
		seconds  = flags.Int("seconds", 20, "measured run time in seconds")
		trace    = flags.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
		benchDir = flags.String("bench-dir", "perfbench", "the benchmark's directory, relative to the repository root")
		serveBin = flags.String("serve-bin", ".bench_build/wlserve", "wlserve binary built from the tree")
		workDir  = flags.String("work-dir", ".bench_build", "directory for working files, inside the checkout")
		commit   = flags.String("commit", "", "git commit of the tree, when known")
		writeRef = flags.Bool("write-reference", false, "regenerate the committed reference and exit")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	refDir := filepath.Join(*benchDir, "reference")
	if *writeRef {
		if err := writeReference(refDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of sweep-exact, sweep-fast, serve-mixed), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	wd := workloads[i]
	env := &runEnv{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		refDir: refDir, serveBin: *serveBin, workDir: *workDir,
	}
	out, err := wd.run(env)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.set("fail_frac", out.tally.failFrac(), int(out.tally.attempted))
	defs := endToEnd
	if env.trace {
		defs = perLayer
	}
	ms, err := out.metrics(defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := report{
		Schema: "perfbench/v1", Workload: wd.name, Why: wd.why, Seed: *seed, Seconds: *seconds,
		Trace: *trace, Tier: out.tier, Host: hostinfo.Collect(), Commit: *commit,
		Source: sourceDigest(filepath.Dir(filepath.Clean(*benchDir))), Engine: sim.EngineVersion,
		FailFrac: out.tally.failFrac(), Failures: out.tally.firstErrs, Samples: map[string]int{},
	}
	for _, d := range defs {
		if out.na[d.name] {
			rep.NotApplicable = append(rep.NotApplicable, d.name)
		} else {
			rep.Samples[d.name] = out.samples[d.name]
		}
	}
	res := result{Correct: out.tally.failed == 0, Attempted: out.tally.attempted, Failed: out.tally.failed, Metrics: ms}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d checks failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// report is the provenance line printed before the result.
type report struct {
	Schema        string         `json:"schema"`
	Workload      string         `json:"workload"`
	Why           string         `json:"why"`
	Seed          int64          `json:"seed"`
	Seconds       int            `json:"seconds"`
	Trace         int            `json:"trace"`
	Tier          string         `json:"tier"`
	Host          hostinfo.Info  `json:"host"`
	Commit        string         `json:"git_commit"`
	Source        string         `json:"source_sha256"`
	Engine        string         `json:"engine"`
	FailFrac      float64        `json:"fail_frac"`
	Failures      []string       `json:"failures,omitempty"`
	Samples       map[string]int `json:"samples"`
	NotApplicable []string       `json:"not_applicable,omitempty"`
}

// sourceDigest hashes the Go sources and module files under root, so a
// report names the exact code it measured even where no git metadata
// exists. Hidden directories (.git, .bench_build) are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
