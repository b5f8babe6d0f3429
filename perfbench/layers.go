package main

import (
	"math/rand"
	"time"

	"wlcache/internal/energy"
	"wlcache/internal/power"
	"wlcache/internal/sim"
)

// layerAgg sums the layer split and the exact counts over traced cells.
type layerAgg struct {
	cells int
	split layerSplit

	loads, stores, computes     int64
	accesses                    int64
	checkpoints, restores       int64
	checkpointNS, restoreNS     int64
	instructions, outages       uint64
	execPS, onPS                int64
	writebacks, stalls          uint64
	nvmReadWords, nvmWriteWords uint64
}

func (a *layerAgg) add(t *cellTrace, res sim.Result) {
	s := t.split()
	a.cells++
	a.split.Wall += s.Wall
	a.split.Build += s.Build
	a.split.Sim += s.Sim
	a.split.Workload += s.Workload
	a.split.Design += s.Design
	a.split.Unattributed += s.Unattributed
	a.split.Machine += s.Machine
	a.split.Access += s.Access
	a.loads += t.loads
	a.stores += t.stores
	a.computes += t.computes
	a.accesses += t.access.calls
	a.checkpoints += t.checkpoints
	a.restores += t.restores
	a.checkpointNS += t.checkpointNS
	a.restoreNS += t.restoreNS
	a.instructions += res.Instructions
	a.outages += res.Outages
	a.execPS += res.ExecTime
	a.onPS += res.OnTime
	a.writebacks += res.Extra.Writebacks
	a.stalls += res.Extra.Stalls
	a.nvmReadWords += res.NVMTraffic.ReadWords
	a.nvmWriteWords += res.NVMTraffic.WriteWords
}

func (a *layerAgg) machineCalls() int64 { return a.loads + a.stores + a.computes }

// spacingPS is the simulated on-time per Machine call: the event
// spacing the power/energy probes replay.
func (a *layerAgg) spacingPS() int64 {
	if a.machineCalls() == 0 {
		return 1000
	}
	return max(1, a.onPS/a.machineCalls())
}

// report sets the per-layer metrics: times and shares from a (all
// traced cells), exact counts from counted (one traced pass, so they
// do not depend on how many passes fit in the run).
func (a *layerAgg) report(out *outcome, counted layerAgg) {
	n := a.cells
	out.set("expt.build_us", a.split.Build/float64(n)/1e3, n)
	out.set("workload.self_share", a.split.Workload/a.split.Wall, n)
	out.set("workload.ns_per_call", perCall(a.split.Workload, a.machineCalls()), n)
	out.set("sim.self_share", a.split.Sim/a.split.Wall, n)
	out.set("sim.ns_per_instr", a.split.Sim/float64(a.instructions), n)
	out.set("design.self_share", a.split.Design/a.split.Wall, n)
	out.set("design.access_ns", perCall(a.split.Access, a.accesses), n)
	out.set("design.checkpoint_us", perCall(float64(a.checkpointNS), a.checkpoints)/1e3, int(a.checkpoints))
	out.set("design.restore_us", perCall(float64(a.restoreNS), a.restores)/1e3, int(a.restores))
	out.set("trace.unattributed_share", a.split.Unattributed/a.split.Wall, n)

	c := counted
	out.set("workload.loads", float64(c.loads), c.cells)
	out.set("workload.stores", float64(c.stores), c.cells)
	out.set("workload.compute_calls", float64(c.computes), c.cells)
	out.set("sim.instructions", float64(c.instructions), c.cells)
	out.set("sim.outages", float64(c.outages), c.cells)
	out.set("sim.exec_s", float64(c.execPS)/1e12, c.cells)
	out.set("design.accesses", float64(c.accesses), c.cells)
	out.set("design.checkpoints", float64(c.checkpoints), c.cells)
	out.set("design.writebacks", float64(c.writebacks), c.cells)
	out.set("design.stalls", float64(c.stalls), c.cells)
	out.set("mem.nvm_read_words", float64(c.nvmReadWords), c.cells)
	out.set("mem.nvm_write_words", float64(c.nvmWriteWords), c.cells)
}

func perCall(ns float64, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return ns / float64(calls)
}

// probeSink keeps the probe loops' results live.
var probeSink float64

// probePower times direct calls into the power and energy layers, whose
// time inside a run has no public boundary and stays in sim self time:
// power.Cursor.Integrate over consecutive windows of the measured event
// spacing, power.Trace.TimeToHarvest for recharges, and
// energy.Capacitor.Step for one event's harvest and draw. The window
// starts and recharge sizes come from the workload seed.
func probePower(seed int64, spacingPS int64, out *outcome) {
	const rounds, windows, perWindow = 5, 16, 8192
	rng := rand.New(rand.NewSource(seed))
	cfg := sim.DefaultConfig()
	traces := []*power.Trace{power.Get(power.Trace1), power.Get(power.Trace3)}
	starts := make([]int64, windows)
	for i := range starts {
		starts[i] = rng.Int63n(traces[i%2].Duration())
	}
	fullE := 0.5 * cfg.CapacitorF * (cfg.VMax*cfg.VMax - cfg.VMin*cfg.VMin)
	harvests := make([]float64, windows*64)
	for i := range harvests {
		harvests[i] = fullE * (0.05 + 0.95*rng.Float64())
	}

	var integ, tth, step []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for w, from := range starts {
			c := power.NewCursor(traces[w%2])
			for i := int64(0); i < perWindow; i++ {
				probeSink += c.Integrate(from+i*spacingPS, from+(i+1)*spacingPS)
			}
		}
		integ = append(integ, float64(time.Since(t0))/(windows*perWindow))

		t0 = time.Now()
		for i, e := range harvests {
			dt, _ := traces[i%2].TimeToHarvest(starts[i%windows], e)
			probeSink += float64(dt)
		}
		tth = append(tth, float64(time.Since(t0))/float64(len(harvests)))

		capa := energy.NewCapacitor(cfg.CapacitorF, cfg.VMin, cfg.VMax)
		capa.SetVoltage(cfg.VMax)
		h := traces[0].Mean() * float64(spacingPS) / 1e12
		draw := cfg.InstrEnergy * float64(spacingPS) / float64(cfg.CyclePS)
		t0 = time.Now()
		for i := 0; i < windows*perWindow; i++ {
			if !capa.Step(h, draw, cfg.VMin, true) {
				capa.SetVoltage(cfg.VMax)
			}
		}
		step = append(step, float64(time.Since(t0))/(windows*perWindow))
		probeSink += capa.Voltage()
	}
	out.set("power.integrate_ns", median(integ), rounds)
	out.set("power.time_to_harvest_ns", median(tth), rounds)
	out.set("energy.step_ns", median(step), rounds)
}
