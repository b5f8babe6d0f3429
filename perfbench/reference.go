package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"wlcache/internal/expt"
	"wlcache/internal/power"
	"wlcache/internal/runner"
	"wlcache/internal/serve"
	"wlcache/internal/sim"
	"wlcache/internal/workload"
)

// The committed reference is this commit's own output: the model has
// no hardware reference, so correctness means identity with it.
//
//   - reference/sweep.json pins every figure-sweep cell's flattened
//     result (expt.FlattenResult) at the exact tier. sweep-exact must
//     match it bit for bit; sweep-fast must match its counts exactly
//     and its energies and times within expt.FastTolerance.
//   - reference/kernels.json pins one output checksum per kernel (every
//     design and trace must compute it) and the error strings of the
//     design/trace pairs that are infeasible by construction.
const (
	sweepRefFile  = "sweep.json"
	kernelRefFile = "kernels.json"
)

// kernelRef is reference/kernels.json.
type kernelRef struct {
	Checksums map[string]uint32 `json:"checksums"`
	// Infeasible maps "design/trace" to the simulator error that pins
	// the pair as infeasible.
	Infeasible map[string]string `json:"infeasible"`
}

// reference is the loaded committed reference.
type reference struct {
	cells   map[string]expt.GoldenCell // by GoldenCell.ID()
	kernels kernelRef
}

func loadReference(dir string) (*reference, error) {
	cells, err := expt.LoadGoldenFile(filepath.Join(dir, sweepRefFile))
	if err != nil {
		return nil, fmt.Errorf("load sweep reference: %w", err)
	}
	ref := &reference{cells: make(map[string]expt.GoldenCell, len(cells))}
	for _, c := range cells {
		ref.cells[c.ID()] = c
	}
	raw, err := os.ReadFile(filepath.Join(dir, kernelRefFile))
	if err != nil {
		return nil, fmt.Errorf("load kernel reference: %w", err)
	}
	if err := json.Unmarshal(raw, &ref.kernels); err != nil {
		return nil, fmt.Errorf("parse kernel reference: %w", err)
	}
	return ref, nil
}

// goldenCell renders one sweep outcome the way the reference pins it:
// the simulator's own error string for a failed cell, the flattened
// result otherwise.
func goldenCell(c sweepCell, res sim.Result, err error) expt.GoldenCell {
	g := expt.GoldenCell{Kind: string(c.kind), Workload: c.wl, Trace: string(c.src)}
	if err != nil {
		var ce *runner.CellError
		if errors.As(err, &ce) {
			err = ce.Err
		}
		g.Err = err.Error()
		return g
	}
	g.Fields = expt.FlattenResult(res)
	return g
}

// checkCell compares one produced sweep cell with the reference: bit
// for bit at the exact tier, under expt.FastTolerance at the fast tier.
func (r *reference) checkCell(got expt.GoldenCell, tier sim.Tier) error {
	want, ok := r.cells[got.ID()]
	if !ok {
		return fmt.Errorf("%s: not in the reference", got.ID())
	}
	if tier == sim.TierFast {
		return expt.CompareGoldenCellsTol([]expt.GoldenCell{got}, []expt.GoldenCell{want}, false, expt.FastTolerance())
	}
	return expt.CompareGoldenCells([]expt.GoldenCell{got}, []expt.GoldenCell{want}, false)
}

// kernelsByCost lists the kernels by their mean instruction count over
// the reference cells, cheapest first.
func (r *reference) kernelsByCost() []string {
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, c := range r.cells {
		if v, err := strconv.ParseFloat(c.Fields["Instructions"], 64); err == nil {
			sum[c.Workload] += v
			n[c.Workload]++
		}
	}
	names := workload.Names()
	mean := func(wl string) float64 { return sum[wl] / n[wl] }
	slices.SortStableFunc(names, func(a, b string) int { return cmp.Compare(mean(a), mean(b)) })
	return names
}

// energyDrift is the largest relative difference between got's energy
// fields and the reference's: the fast tier's actual ε margin.
func (r *reference) energyDrift(got expt.GoldenCell) float64 {
	want := r.cells[got.ID()]
	worst := 0.0
	for field, wv := range want.Fields {
		if field != "ReserveWasted" && !strings.HasPrefix(field, "Energy.") {
			continue
		}
		g, ok1 := parseHexFloat(got.Fields[field])
		w, ok2 := parseHexFloat(wv)
		if !ok1 || !ok2 || g == w {
			continue
		}
		if d := math.Abs(g-w) / math.Max(math.Abs(g), math.Abs(w)); d > worst {
			worst = d
		}
	}
	return worst
}

// parseHexFloat decodes expt.FlattenResult's IEEE-754 rendering.
func parseHexFloat(s string) (float64, bool) {
	bits, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	if err != nil || !strings.HasPrefix(s, "0x") {
		return 0, false
	}
	return math.Float64frombits(bits), true
}

// checkEvent verifies one wlserve cell event: a pinned-infeasible
// design/trace pair must fail with exactly its pinned error; every
// other cell must succeed with its kernel's checksum.
func (r *reference) checkEvent(ev serve.Event) error {
	key := ev.Kind + "/" + ev.Trace
	if pinned, ok := r.kernels.Infeasible[key]; ok {
		if ev.Error != pinned {
			return fmt.Errorf("%s: infeasible pair must fail with %q, got error %q", ev.ID, pinned, ev.Error)
		}
		return nil
	}
	if ev.Error != "" {
		return fmt.Errorf("%s: %s", ev.ID, ev.Error)
	}
	if ev.Result == nil {
		return fmt.Errorf("%s: cell event without a result", ev.ID)
	}
	want, ok := r.kernels.Checksums[ev.Workload]
	if !ok {
		return fmt.Errorf("%s: kernel %q not in the reference", ev.ID, ev.Workload)
	}
	if ev.Result.Checksum != want || ev.Result.Workload != ev.Workload {
		return fmt.Errorf("%s: checksum %d for %s, reference %d", ev.ID, ev.Result.Checksum, ev.Result.Workload, want)
	}
	return nil
}

// tally counts attempted and failed operations and keeps the first
// few failure messages for the report.
type tally struct {
	attempted, failed int64
	firstErrs         []string
}

// note counts one attempted operation that failed when err is non-nil.
func (t *tally) note(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.firstErrs) < 5 {
		t.firstErrs = append(t.firstErrs, err.Error())
	}
}

// failFrac is failed ÷ attempted.
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// writeReference regenerates the committed reference from this tree:
// the figure sweep at the exact tier through the production cell path
// (expt.RunnerCell), the kernel checksums every design agrees on, and
// the pinned errors of eager-wb, the design that is infeasible under
// every RF trace.
func writeReference(dir string) error {
	cells := figureCells()
	rcells := make([]runner.Cell, len(cells))
	for i, c := range cells {
		rcells[i] = expt.RunnerCell(c.kind, c.opts, c.wl, 1, c.src, sim.DefaultConfig())
		rcells[i].Optional = true
	}
	rep, err := runner.RunCells(context.Background(), runner.Config{Workers: workers, Engine: sim.EngineVersion}, rcells)
	if err != nil {
		return err
	}
	golden := make([]expt.GoldenCell, len(cells))
	kref := kernelRef{Checksums: map[string]uint32{}, Infeasible: map[string]string{}}
	for i, c := range cells {
		golden[i] = goldenCell(c, rep.Results[i], rep.Errs[i])
		if golden[i].Err != "" {
			return fmt.Errorf("figure cell %s failed: %s", golden[i].ID(), golden[i].Err)
		}
		sum := rep.Results[i].Checksum
		if prev, ok := kref.Checksums[c.wl]; ok && prev != sum {
			return fmt.Errorf("kernel %s: checksum %d under %s, %d elsewhere", c.wl, sum, golden[i].ID(), prev)
		}
		kref.Checksums[c.wl] = sum
	}
	for _, src := range sweepTraces() {
		_, err := expt.Run(expt.KindEagerWB, expt.Options{}, workload.Names()[0], 1, src, sim.DefaultConfig())
		if err == nil {
			return fmt.Errorf("eager-wb under %s ran; expected it to be infeasible", src)
		}
		kref.Infeasible[string(expt.KindEagerWB)+"/"+string(src)] = err.Error()
	}
	if err := writeJSON(filepath.Join(dir, sweepRefFile), golden); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, kernelRefFile), kref)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sweepTraces are the two RF traces of the figure sweeps.
func sweepTraces() []power.Source { return []power.Source{power.Trace1, power.Trace3} }
