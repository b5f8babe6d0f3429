package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"wlcache/internal/expt"
	"wlcache/internal/load"
	"wlcache/internal/power"
	"wlcache/internal/serve"
	"wlcache/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 50}, {90, 90}, {1, 1}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%d of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// p90 of 100 samples leaves exactly 10 beyond it; of 99, only 9.
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples was reported; 9 lie beyond it")
	}
	// p50 needs 20 samples: rank 10 with 10 beyond.
	if got, err := percentile(xs[80:], 50); err != nil || got != 10 {
		t.Errorf("p50 of 20 samples = %v, %v; want 10", got, err)
	}
	if _, err := percentile(xs[81:], 50); err == nil {
		t.Error("p50 of 19 samples was reported; 9 lie beyond it")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSampledStrideAndCorrection(t *testing.T) {
	s := sampled{stride: 5}
	timed := 0
	for i := 0; i < 23; i++ {
		if s.due() {
			timed++
			s.add(100, 150, 160) // 50 ns raw, 10 ns of it one clock read
		}
	}
	// The first call is timed, then every fifth: calls 1, 6, 11, 16, 21.
	if s.calls != 23 || timed != 5 {
		t.Fatalf("23 calls at stride 5: counted %d, timed %d; want 23, 5", s.calls, timed)
	}
	if got := s.estimate(); got != 40*23 {
		t.Errorf("estimate = %v, want mean 40 ns × 23 calls", got)
	}
	s.add(0, maxSampleNS+1, maxSampleNS+2)
	if s.samples != 5 {
		t.Errorf("an interrupted sample was kept: %d samples", s.samples)
	}
}

func TestSelfTimeNestedSampled(t *testing.T) {
	tr := newCellTrace()
	tr.wallNS, tr.buildNS, tr.runNS, tr.programNS = 1000, 100, 880, 800
	tr.machine = sampled{calls: 10, samples: 2, ns: 100} // ≈ 500 ns
	tr.access = sampled{calls: 6, samples: 3, ns: 60}    // ≈ 120 ns, inside Machine calls
	tr.designInNS, tr.designOutNS = 30, 20               // checkpoints inside / after the program
	s := tr.split()
	want := layerSplit{Wall: 1000, Build: 100, Machine: 500, Access: 120,
		Design:   120 + 30 + 20,
		Workload: 800 - 500,
		Sim:      (880 - 800 - 20) + 500 - 120 - 30,
	}
	want.Unattributed = 1000 - 100 - want.Sim - want.Workload - want.Design
	if s != want {
		t.Fatalf("split = %+v\nwant  %+v", s, want)
	}
	if want.Unattributed != 20 {
		t.Fatalf("unattributed = %v, want the 20 ns of the cell span outside build and run", want.Unattributed)
	}

	// An over-estimated child floors its parent's self time at zero and
	// shows as negative unattributed time; the identity still holds.
	tr.machine = sampled{calls: 10, samples: 1, ns: 90} // ≈ 900 ns > program
	s = tr.split()
	if s.Workload != 0 {
		t.Errorf("workload self = %v, want floored at 0", s.Workload)
	}
	if sum := s.Build + s.Sim + s.Workload + s.Design + s.Unattributed; sum != s.Wall || s.Unattributed >= 0 {
		t.Errorf("layers + unattributed = %v (unattributed %v), want wall %v with negative unattributed", sum, s.Unattributed, s.Wall)
	}
}

func TestWrapDesignKeepsInterfaces(t *testing.T) {
	for _, k := range expt.AllKinds() {
		d, _ := expt.NewDesign(k, expt.Options{})
		w, err := wrapDesign(d, newCellTrace())
		if err != nil {
			t.Errorf("%s: %v", k, err)
			continue
		}
		if got, want := optionalOf(w), optionalOf(d); got != want {
			t.Errorf("%s: wrapper exposes %v, design %v", k, got, want)
		}
	}
}

// TestTracedCellMatchesUntraced runs cheap cells with outages through
// both paths: adaptive wl (OnBoot, reserve notifications) and
// nvsram-practical (no AccessEB).
func TestTracedCellMatchesUntraced(t *testing.T) {
	cells := []sweepCell{
		{kind: expt.KindWL, wl: "adpcmencode", src: power.Trace3},
		{kind: expt.KindNVSRAMPractical, wl: "adpcmencode", src: power.Trace1},
	}
	for _, tier := range []sim.Tier{sim.TierExact, sim.TierFast} {
		u, err := runSweep(cells, tier, false)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := runSweep(cells, tier, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			ug := goldenCell(c, u.results[i], u.errs[i])
			tg := goldenCell(c, tr.results[i], tr.errs[i])
			if ug.Err != "" {
				t.Fatalf("%s: %s", c.id(), ug.Err)
			}
			if err := sameOutcome(ug, tg, tr.results[i], tr.traces[i]); err != nil {
				t.Errorf("%s tier: %v", tier, err)
			}
			ct := tr.traces[i]
			if ct.checkpoints == 0 || ct.restores == 0 || tr.results[i].Outages == 0 {
				t.Errorf("%s: expected outages with checkpoints and restores, got %d/%d", c.id(), ct.checkpoints, ct.restores)
			}
			if c.kind == expt.KindWL && ct.boots == 0 {
				t.Errorf("%s: adaptive wl never saw OnBoot through the wrapper", c.id())
			}
			s := ct.split()
			if sum := s.Build + s.Sim + s.Workload + s.Design + s.Unattributed; math.Abs(sum-s.Wall) > 1e-6*s.Wall {
				t.Errorf("%s: layers + unattributed = %v, wall %v", c.id(), sum, s.Wall)
			}
		}
	}
}

func TestReferenceTamperOneULP(t *testing.T) {
	ref, err := loadReference("reference")
	if err != nil {
		t.Fatal(err)
	}
	c := sweepCell{kind: expt.KindVCacheWT, wl: "adpcmencode", src: power.Trace1}
	r, err := runSweep([]sweepCell{c}, sim.TierExact, false)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenCell(c, r.results[0], r.errs[0])
	var tl tally
	checkSweep(ref, []sweepCell{c}, r, sim.TierExact, &tl)
	if tl.failed != 0 {
		t.Fatalf("untampered reference: %v", tl.firstErrs)
	}

	want := ref.cells[got.ID()]
	tampered := *ref
	tampered.cells = map[string]expt.GoldenCell{}
	fields := map[string]string{}
	for k, v := range want.Fields {
		fields[k] = v
	}
	e, ok := parseHexFloat(fields["Energy.Compute"])
	if !ok {
		t.Fatal("Energy.Compute is not a hex float")
	}
	fields["Energy.Compute"] = fmt.Sprintf("%#016x", math.Float64bits(math.Nextafter(e, math.Inf(1))))
	tampered.cells[got.ID()] = expt.GoldenCell{Kind: want.Kind, Workload: want.Workload, Trace: want.Trace, Fields: fields}

	tl = tally{}
	checkSweep(&tampered, []sweepCell{c}, r, sim.TierExact, &tl)
	if tl.failed != 1 || tl.failFrac() != 1 {
		t.Errorf("one-ULP tamper passed the exact check: failed %d of %d", tl.failed, tl.attempted)
	}
	// The fast tier's contract admits a one-ULP energy difference.
	if err := tampered.checkCell(got, sim.TierFast); err != nil {
		t.Errorf("fast-tier check rejected a one-ULP energy difference: %v", err)
	}
	if drift := tampered.energyDrift(got); drift <= 0 || drift > 1e-15 {
		t.Errorf("energy drift of a one-ULP tamper = %v", drift)
	}
}

// TestReferenceAgreesWithGolden cross-checks the committed reference
// against the repository's own golden matrix where they overlap.
func TestReferenceAgreesWithGolden(t *testing.T) {
	ref, err := loadReference("reference")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := expt.LoadGoldenFile(filepath.Join("..", "internal", "expt", "testdata", "golden_results.json"))
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, g := range golden {
		if _, ok := ref.cells[g.ID()]; !ok {
			continue
		}
		shared++
		if err := ref.checkCell(g, sim.TierExact); err != nil {
			t.Error(err)
		}
	}
	if shared == 0 {
		t.Fatal("reference and golden share no cells")
	}
	if len(ref.cells) != len(figureCells()) {
		t.Errorf("reference pins %d cells, the figure sweep has %d", len(ref.cells), len(figureCells()))
	}
}

func TestFailFracAccounting(t *testing.T) {
	ref := &reference{kernels: kernelRef{
		Checksums:  map[string]uint32{"sha": 7},
		Infeasible: map[string]string{"eager-wb/tr1": "sim: reserve unreachable"},
	}}
	ok := &sim.Result{Workload: "sha", Checksum: 7}
	bad := &sim.Result{Workload: "sha", Checksum: 8}
	events := []struct {
		ev   serve.Event
		fail bool
	}{
		{serve.Event{ID: "a", Kind: "wl", Workload: "sha", Trace: "tr1", Result: ok}, false},
		{serve.Event{ID: "b", Kind: "eager-wb", Workload: "sha", Trace: "tr1", Error: "sim: reserve unreachable"}, false},
		{serve.Event{ID: "c", Kind: "eager-wb", Workload: "sha", Trace: "tr1", Result: ok}, true},
		{serve.Event{ID: "d", Kind: "wl", Workload: "sha", Trace: "tr1", Result: bad}, true},
		{serve.Event{ID: "e", Kind: "wl", Workload: "sha", Trace: "tr3", Error: "boom"}, true},
	}
	for _, e := range events {
		if err := ref.checkEvent(e.ev); (err != nil) != e.fail {
			t.Errorf("%s: checkEvent = %v, want failure %t", e.ev.ID, err, e.fail)
		}
	}

	// Whole sweeps over HTTP: shed with 429, a mismatched cell, a clean
	// sweep with a pinned infeasible cell, the same cell reused with its
	// own result, and reused with another grid point's result (same
	// checksum, other counts).
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec serve.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch spec.Workloads[0] {
		case "shed":
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		res, src := &sim.Result{Workload: "sha", Checksum: 7, Instructions: 100}, "computed"
		switch spec.Workloads[0] {
		case "mismatch":
			res.Checksum = 9
		case "reused":
			src = "from_shared"
		case "aliased":
			res.Instructions, src = 101, "from_shared"
		}
		enc := json.NewEncoder(w)
		_ = enc.Encode(serve.Event{Type: serve.EventAccepted, Cells: 2})
		_ = enc.Encode(serve.Event{Type: serve.EventCell, ID: "wl/sha/tr1/ml1/dq8", Kind: "wl", Workload: "sha", Trace: "tr1",
			Source: src, Result: res})
		_ = enc.Encode(serve.Event{Type: serve.EventCell, ID: "y", Kind: "eager-wb", Workload: "sha", Trace: "tr1",
			Source: "failed", Error: "sim: reserve unreachable"})
		_ = enc.Encode(serve.Event{Type: serve.EventDone})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := &serve.Client{Base: srv.URL}
	var tl tally
	book := newCellBook()
	for _, wl := range []string{"shed", "mismatch", "clean", "reused", "aliased"} {
		spec := serve.Spec{Designs: []string{"wl", "eager-wb"}, Workloads: []string{wl}}
		o := submit(c, spec, serveKey{}, ref, book, "t")
		if (o.err != nil) != (wl == "shed" || wl == "mismatch" || wl == "aliased") {
			t.Errorf("%s sweep: err = %v", wl, o.err)
		}
		tl.note(o.err)
		if wl == "shed" {
			var oe *serve.OverloadedError
			if !errors.As(o.err, &oe) {
				t.Errorf("429 surfaced as %v, want an OverloadedError", o.err)
			}
		}
	}
	if tl.attempted != 5 || tl.failed != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3 (429, mismatch, aliased)", tl.attempted, tl.failed)
	}
	if got := tl.failFrac(); math.Abs(got-3.0/5) > 1e-12 {
		t.Errorf("fail_frac = %v, want 3/5", got)
	}
}

// servePlanSpecs is how many specs TestServePlanMixesReusedAndFresh
// requires the stream to hold: over seven times the 1092 sweeps a 30 s
// serve-mixed run completed on a 2-vCPU Xeon host, so a service several
// times faster still does not run the stream dry.
const servePlanSpecs = 8000

// planShares walks a plan's stream as the service sees it and returns
// the reused share of its feasible cells and the infeasible share of
// all its cells over the first n specs.
func planShares(t *testing.T, p, q *servePlan, n int) (reusedShare, infeasibleShare float64, total int) {
	t.Helper()
	seen := map[string]bool{} // design/trace/ml/dq/kernel computed so far
	cellKey := func(k serveKey, wl string) string {
		return fmt.Sprintf("%s/%s/%d/%d/%s", k.design, k.trace, k.ml, k.dq, wl)
	}
	for _, k := range p.keys {
		if k.ml == 6 && k.dq == 8 {
			t.Fatalf("key %+v aliases the default grid point", k)
		}
		for _, wl := range p.reused {
			seen[cellKey(k, wl)] = true
		}
	}
	var reused, fresh, infeasible int
	for i := 0; ; i++ {
		spec, k, ok := p.spec(i)
		spec2, _, _ := q.spec(i)
		if !ok || i == n {
			return float64(reused) / float64(reused+fresh), float64(infeasible) / float64(reused+fresh+infeasible), i
		}
		if a, b := mustJSON(t, spec), mustJSON(t, spec2); a != b {
			t.Fatalf("spec %d differs between two plans from one seed", i)
		}
		r, f := 0, 0
		for _, wl := range spec.Workloads {
			if seen[cellKey(k, wl)] {
				r++
			} else {
				f++
			}
			seen[cellKey(k, wl)] = true
		}
		if r != serveReused || f != 1 {
			t.Fatalf("spec %d: %d reused and %d fresh cells, want %d and 1", i, r, f, serveReused)
		}
		reused, fresh = reused+r, fresh+f
		if len(spec.Designs) == 2 {
			infeasible += len(spec.Workloads)
		}
	}
}

func TestServePlanMixesReusedAndFresh(t *testing.T) {
	ref, err := loadReference("reference")
	if err != nil {
		t.Fatal(err)
	}
	p := newServePlan(5, ref)
	_, _, n := planShares(t, p, newServePlan(5, ref), -1)
	if n < servePlanSpecs {
		t.Errorf("the stream holds %d specs, want at least %d", n, servePlanSpecs)
	}
	if a, b := fmt.Sprint(p.keys[:8]), fmt.Sprint(newServePlan(6, ref).keys[:8]); a == b {
		t.Error("two seeds gave the same fresh-kernel orders")
	}
}

// TestServeMixMatchesRecordedLoad derives the reused and infeasible
// cell shares of wlload's default submissions (load.DefaultSpecs
// round-robin, 2×4 requests of one phase, over the golden matrix) and
// requires the serve-mixed stream to carry the same shares.
func TestServeMixMatchesRecordedLoad(t *testing.T) {
	golden, err := expt.LoadGoldenFile(filepath.Join("..", "internal", "expt", "testdata", "golden_results.json"))
	if err != nil {
		t.Fatal(err)
	}
	const requests = 2 * 4 // load.Config defaults: 4 clients, 2×clients requests
	specs := load.DefaultSpecs()
	computed := map[string]bool{}
	var total, reused, infeasible int
	for i := 0; i < requests; i++ {
		spec := specs[i%len(specs)]
		if spec.NumCells() == 0 {
			t.Fatal("empty default spec")
		}
		n := 0
		for _, g := range golden {
			if len(spec.Designs) > 0 && !slices.Contains(spec.Designs, g.Kind) {
				continue
			}
			n++
			switch {
			case g.Err != "":
				infeasible++ // errors are never stored, so never reused
			case computed[g.ID()]:
				reused++
			default:
				computed[g.ID()] = true
			}
		}
		if n != spec.NumCells() {
			t.Fatalf("default spec %d has %d cells, the golden matrix gives %d", i%len(specs), spec.NumCells(), n)
		}
		total += n
	}
	wantReused := float64(reused) / float64(total-infeasible)
	wantInfeasible := float64(infeasible) / float64(total)
	ref, err := loadReference("reference")
	if err != nil {
		t.Fatal(err)
	}
	gotReused, gotInfeasible, _ := planShares(t, newServePlan(1, ref), newServePlan(1, ref), 1000)
	if math.Abs(gotReused-wantReused) > 0.02 || math.Abs(gotInfeasible-wantInfeasible) > 0.005 {
		t.Errorf("serve-mixed shares: reused %.3f, infeasible %.4f; recorded load mix: %.3f, %.4f",
			gotReused, gotInfeasible, wantReused, wantInfeasible)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
