package sim

import (
	"fmt"
	"math"

	"wlcache/internal/energy"
	"wlcache/internal/isa"
)

// This file is the TierFast machine (DESIGN.md §16). New picks it once
// per run. It embeds the Simulator, so shared state is one load away
// and the charge-up, outage sequence and final flush are the exact
// machine's code. The exact machine keeps capacitor state as a voltage
// and pays a two-sqrt floating-point dependency chain on every event
// (energy.Capacitor.Step); that chain is the §11.3 performance
// ceiling. The fast machine restructures the same physics under a
// committed tolerance:
//
//   - Capacitor state lives in energy space (fcapE, joules). Harvest
//     clamping and the Vbackup/VMin comparisons all have exact
//     energy-space forms (E ≥ ½CV² ⇔ V' ≥ V), so no sqrt is needed
//     between outages.
//   - Harvest integration and capacitor settlement are batched across
//     events. Between settles, access events accumulate their energy
//     breakdown in place (ebScratch is not zeroed per event — every
//     design accumulates with +=), so the per-event work is the
//     category sum and two compares; the accumulated breakdown is
//     flushed into Result.Energy at each settle. A settle is forced
//     before either bound is violated:
//       budget bound   pending draw < drawBudget, where drawBudget is
//                      the settled energy above the Vbackup threshold.
//                      Harvest only adds energy, so no Vbackup crossing
//                      can hide inside a window that respects it.
//       deadline bound now < settleDeadline, the first instant the
//                      trace could have harvested the capacitor full.
//                      Within such a window the VMax clamp provably
//                      cannot engage, so one batched Integrate equals
//                      the per-event sequence (up to fp reordering).
//     An event that would cross the deadline is settled into its own
//     single-event window, which matches the exact tier's per-event
//     clamp semantics by construction.
//   - Compute blocks are fused: a whole Compute(n) advances in one
//     step when the zero-harvest draw budget covers it, degrading to
//     the exact tier's ComputeChunk monitor granularity near the
//     threshold. Per-block costs are memoized by block length.
//
// Everything event-ordered stays event-ordered: the instruction
// sequence, every design access, and every outage boundary are decided
// at the same event granularity as the exact tier, so all counts
// (outages, write-backs, checkpoint lines, traffic) are exactly equal;
// only the floating-point summation order changes, which perturbs
// energies and recharge durations at relative ~1e-15 per operation.
// Outage/checkpoint/restore sequences themselves run the exact
// voltage-space code (a handful of events per outage), entered and
// left through an energy<->voltage sync.
//
// Pending draw is tracked as two scalars: pendingBlock (fused Compute
// blocks, which bypass ebScratch entirely) and scratchDraw (the cached
// ebScratch.Total() as of the last access event). Their sum is the
// window's draw. A settle can land mid-access — wl-dyn raises its
// reserve from inside AccessEB via ReserveNotifyBinder — at which point
// ebScratch holds a partially built event that scratchDraw does not yet
// cover; settle flushes the whole scratch but settles only the
// covered draw, carrying the in-flight remainder into the new window.

// blockMemoSize is the direct-mapped block-cost memo size. Workload
// kernels issue Compute(n) with a handful of distinct small n per
// inner loop; 16 slots keyed by n make collisions rare without a map
// lookup on the hot path.
const blockMemoSize = 16

// blockCost caches the derived costs of a Compute block of length n:
// its duration, its core/fetch energies and their sum (the block's
// tracked draw; leakage is derived from time at settle). The entries
// fold perInstrPS, cfg.InstrEnergy and instrE, all fixed in New, so a
// filled entry stays valid for the whole run.
type blockCost struct {
	n       int
	dt      int64
	compute float64
	fetch   float64
	draw    float64
}

// fastMachine is the fast tier's isa.Machine.
type fastMachine struct {
	*Simulator

	hot            bool    // the machine owns the capacitor state (between enter and exit)
	fcapE          float64 // capacitor energy (J); authoritative while hot
	eVb            float64 // ½·C·Vbackup² — the monitor threshold in energy space
	eCapMax        float64 // ½·C·VMax² — the harvest clamp in energy space
	eFloor         float64 // ½·C·(VMin−1e-9)² — the guarded-draw floor in energy space
	settleT        int64   // start of the open settle window
	settleDeadline int64   // no event may reach past this without settling
	pendingBlock   float64 // draw of fused Compute blocks since settleT
	scratchDraw    float64 // ebScratch.Total() as of the last access event
	drawBudget     float64 // zero-harvest-safe draw before a settle is forced
	perInstrDrawE  float64 // worst-case (zero-harvest) energy per ALU instruction
	leakWPerPS     float64 // leakW/1e12: J per ps, mul instead of div on the fast path
	computeRetired uint64  // ALU instructions retired via fused blocks (+ exact-mode baseline)
	blockMemo      [blockMemoSize]blockCost
}

func newFastMachine(s *Simulator) *fastMachine {
	floor := s.cfg.VMin - 1e-9
	return &fastMachine{
		Simulator:     s,
		eCapMax:       0.5 * s.cfg.CapacitorF * s.cfg.VMax * s.cfg.VMax,
		eFloor:        0.5 * s.cfg.CapacitorF * floor * floor,
		perInstrDrawE: s.cfg.InstrEnergy + s.instrE + s.leakW*float64(s.perInstrPS)/1e12,
		leakWPerPS:    s.leakW / 1e12,
	}
}

// enter engages the fast loop from the capacitor's current state.
// Called once after the initial charge-up and after every outage.
func (f *fastMachine) enter() {
	f.hot = true
	// Exact-tier code leaves its last event's values in the scratch;
	// the accumulating fast path needs it clean.
	f.ebScratch = energy.Breakdown{}
	// Baseline for the derived instruction count: while hot,
	// Result.Instructions is reconstructed at every settle as
	// Loads + Stores + computeRetired, so access events don't touch it.
	f.computeRetired = f.res.Instructions - f.res.Loads - f.res.Stores
	// The outage may have moved the reserve (OnBoot adaptation).
	f.eVb = 0.5 * f.cfg.CapacitorF * f.vb * f.vb
	v := f.cap.Voltage()
	f.fcapE = 0.5 * f.cfg.CapacitorF * v * v
	f.pendingBlock = 0
	f.scratchDraw = 0
	f.settleT = f.now
	f.rearm()
}

// exit settles outstanding state and hands authority back to the
// voltage-space capacitor (for the final flush, and for anyone who
// inspects it post-run).
func (f *fastMachine) exit() {
	f.settle()
	f.syncCap()
	f.hot = false
}

// reserveChanged is the fast tier's ReserveNotifyBinder callback.
func (f *fastMachine) reserveChanged() {
	f.refreshThresholds()
	if f.hot {
		// Adaptive reserve change mid-run: settle at the current
		// trajectory so the new budget derives from real state, then
		// re-arm against the new threshold (settle calls rearm).
		f.eVb = 0.5 * f.cfg.CapacitorF * f.vb * f.vb
		f.settle()
	}
}

// probeReserve is the fast tier's EnergyProbeBinder callback.
func (f *fastMachine) probeReserve(newReserve float64) bool {
	return f.probe(newReserve, f.materialize)
}

// materialize settles the trajectory and writes it to the capacitor,
// so a probe reads the same state the exact tier would (one sqrt,
// probe-rate only).
func (f *fastMachine) materialize() {
	if f.hot {
		f.settle()
		f.syncCap()
	}
}

// syncCap materializes the settled energy state as a voltage. One
// sqrt, off the hot path.
func (f *fastMachine) syncCap() {
	e := f.fcapE
	if e < 0 {
		e = 0
	}
	f.cap.SetVoltage(math.Sqrt(2 * e / f.cfg.CapacitorF))
}

// settle closes the open window at now: it flushes the accumulated
// breakdown into Result.Energy, accounts the window's leakage and
// on-time from the window duration (the window tiles [settleT, now]
// contiguously with on-period events, so both are a single expression
// — leak as leakW·dt, on-time exactly), rebuilds the derived
// instruction count, integrates the harvest actually available,
// applies the covered draw, and re-arms the budget and deadline. Any
// in-flight (mid-access) accumulation beyond scratchDraw is carried
// into the new window as pending draw, not settled. The window
// construction (see rearm) guarantees the single end-of-window VMax
// clamp is equivalent to the exact tier's per-event clamping.
func (f *fastMachine) settle() {
	carry := f.scratchTotal() - f.scratchDraw
	windowDt := f.now - f.settleT
	leakE := f.leakWPerPS * float64(windowDt)
	drawn := f.pendingBlock + f.scratchDraw + leakE
	f.res.Energy.Add(f.ebScratch)
	f.res.Energy.Leak += leakE
	f.res.OnTime += windowDt
	f.res.Instructions = f.res.Loads + f.res.Stores + f.computeRetired
	f.ebScratch = energy.Breakdown{}
	f.pendingBlock = carry
	f.scratchDraw = 0
	f.settleT = f.now
	if f.untraced {
		// No capacitor under uninterrupted power; nothing to settle.
		return
	}
	if windowDt > 0 {
		f.fcapE += f.cfg.OnHarvestEff * f.cursor.Integrate(f.now-windowDt, f.now)
		if f.fcapE > f.eCapMax {
			f.fcapE = f.eCapMax
		}
	}
	f.fcapE -= drawn
	if f.fcapE < f.eFloor {
		// Mirror the exact tier's guarded-Step failure: a draw punched
		// through the reserve band past VMin.
		f.syncCap()
		f.abort(fmt.Errorf("at t=%d ps (design %s): %w", f.now, f.design.Name(),
			f.cap.UnderVoltageError(drawn, f.cfg.VMin)))
	}
	f.rearm()
}

// rearm recomputes the two settle bounds from the settled state.
//
// drawBudget is half the energy above the Vbackup threshold assuming
// zero harvest — conservative, since harvest only raises the trajectory
// — so tracked (non-leak) draw < drawBudget proves no Vbackup crossing
// occurred in the window. The other half of the band is reserved for
// leakage, which is not tracked per event: the leak deadline below caps
// the window where leakage alone could spend that half, so
// tracked + leak < the full band always holds.
//
// settleDeadline is the earlier of the leak deadline and the first
// instant at which the trace could have harvested the remaining
// headroom to VMax. Before the harvest bound, no prefix of the window
// can clamp, making the batched integral exact; events reaching past
// the deadline are settled as single-event windows (always sound — the
// leak bound just forces an early settle).
func (f *fastMachine) rearm() {
	budget := f.fcapE - f.eVb
	if budget < 0 {
		budget = 0
	}
	f.drawBudget = 0.5 * budget
	f.settleDeadline = math.MaxInt64
	if f.untraced {
		return
	}
	if f.leakWPerPS > 0 {
		if d := f.drawBudget / f.leakWPerPS; d < math.MaxInt64/4 {
			f.settleDeadline = f.settleT + int64(d)
		}
	}
	if f.cfg.OnHarvestEff <= 0 {
		return
	}
	headroom := f.eCapMax - f.fcapE
	if dt, ok := f.cfg.Trace.TimeToHarvest(f.settleT, headroom/f.cfg.OnHarvestEff); ok {
		if d := f.settleT + dt; d < f.settleDeadline {
			f.settleDeadline = d
		}
	}
}

// settleAndCheck is the fast tier's voltage monitor: settle, then run
// the outage sequence if the trajectory reached Vbackup. The energy
// compare is the exact tier's `v >= vb` in energy space. The outage
// itself runs at exact fidelity — checkpoint, collapse, recharge and
// restore are a handful of events per outage, so their sqrt-based
// arithmetic is off the hot path, and sharing powerFail with the exact
// tier keeps every count and error path identical.
func (f *fastMachine) settleAndCheck() {
	f.settle()
	if f.fcapE < f.eVb {
		f.syncCap()
		f.hot = false
		f.powerFail(false)
		f.enter()
	}
}

// windowOpen reports whether the open window holds any time or draw.
func (f *fastMachine) windowOpen() bool {
	return f.now > f.settleT || f.pendingBlock > 0 || f.scratchDraw > 0
}

// scratchTotal sums the accumulated scratch categories with a balanced
// tree (three fp-add latencies instead of seven). The association
// differs from Breakdown.Total, which the exact tier keeps; the fast
// tier's outputs are ε-bounded, and the budget compare this feeds is
// conservative by half a band, so the reordering is immaterial.
func (f *fastMachine) scratchTotal() float64 {
	b := &f.ebScratch
	return ((b.CacheRead + b.CacheWrite) + (b.MemRead + b.MemWrite)) +
		((b.Compute + b.Checkpoint) + (b.Restore + b.Leak))
}

// Load32 performs an architectural load through the design.
func (f *fastMachine) Load32(addr uint32) uint32 {
	f.opContext()
	f.res.Loads++
	return f.checkLoad(addr, f.access(isa.OpLoad, addr, 0))
}

// Store32 performs an architectural store through the design.
func (f *fastMachine) Store32(addr uint32, v uint32) {
	f.opContext()
	f.recordStore(addr, v)
	f.access(isa.OpStore, addr, v)
}

// access is the fast tier's memory operation. The event's breakdown
// accumulates in ebScratch; leakage, on-time and the instruction count
// are derived from the window duration at settle time, so the common
// case after the design access is the category sum, two stores and two
// compares — no capacitor step, no Breakdown copy, no per-event
// read-modify-writes. end is strictly after now (at least one pipeline
// slot), so the exact tier's backwards-time guard is not needed here.
func (f *fastMachine) access(op isa.Op, addr uint32, val uint32) uint32 {
	v, end := f.accessEvent(op, addr, val)
	if f.untraced {
		// The scratch keeps accumulating; exit flushes it once.
		f.now = end
		return v
	}
	// An event that would reach past the settle deadline is settled
	// into its own single-event window: close the open window at the
	// event's start (settle carries the event's draw, already in the
	// scratch, into the new window), then settle and check the isolated
	// event at its end.
	t := f.scratchTotal()
	isolate := end >= f.settleDeadline
	if isolate && f.windowOpen() {
		f.settle()
	} else {
		f.scratchDraw = t
	}
	f.now = end
	if !isolate && f.pendingBlock+t < f.drawBudget {
		return v
	}
	f.settleAndCheck()
	return v
}

// Compute fuses Compute blocks. A block (or remainder) is advanced in
// one step when the zero-harvest budget covers its whole draw and it
// ends before the settle deadline; otherwise the loop degrades to the
// exact tier's ComputeChunk granularity with a real settle-and-check
// per chunk, so outage placement near the threshold happens at the
// same boundaries as the exact tier.
func (f *fastMachine) Compute(n int) {
	if n < 0 {
		f.abort(fmt.Errorf("negative Compute(%d)", n))
	}
	if f.untraced {
		f.stepBlock(n)
		return
	}
	// Common case — the whole block fits the zero-harvest budget and
	// ends before the settle deadline: one memo lookup, seven adds, no
	// division, no loop.
	m := &f.blockMemo[n&(blockMemoSize-1)]
	if m.n == n && f.pendingBlock+f.scratchDraw+m.draw < f.drawBudget && f.now+m.dt < f.settleDeadline {
		f.retire(m, n)
		return
	}
	f.computeSlow(n)
}

// computeSlow is the near-threshold (or cold-memo) remainder of
// Compute: fuse what the budget proves safe, degrade to the exact
// tier's ComputeChunk monitor granularity when cramped.
func (f *fastMachine) computeSlow(n int) {
	for n > 0 {
		room := int64(n)
		if f.perInstrDrawE > 0 {
			if r := int64((f.drawBudget - f.pendingBlock - f.scratchDraw) / f.perInstrDrawE); r < room {
				room = r
			}
		}
		if byTime := (f.settleDeadline - f.now) / f.perInstrPS; byTime < room {
			room = byTime
		}
		if room < int64(f.cfg.ComputeChunk) && room < int64(n) {
			// Near a bound: one chunk at monitor granularity, then a
			// true settle-and-check, exactly like the exact tier.
			chunk := n
			if chunk > f.cfg.ComputeChunk {
				chunk = f.cfg.ComputeChunk
			}
			f.stepBlock(chunk)
			f.settleAndCheck()
			n -= chunk
			continue
		}
		run := int64(n)
		if room < run {
			run = room
		}
		f.stepBlock(int(run))
		n -= int(run)
	}
}

// stepBlock advances one fused block of n ALU instructions, serving
// every derived cost — duration, per-category energies, total draw —
// from the block-cost memo. The memoized expressions are the exact
// tier's per-chunk formulas evaluated once per distinct block length.
// A block that would reach past the settle deadline is settled alone,
// so its VMax clamp matches the exact tier's single-event semantics
// (under uninterrupted power the deadline is never reached).
func (f *fastMachine) stepBlock(n int) {
	m := &f.blockMemo[n&(blockMemoSize-1)]
	if m.n != n {
		m.n = n
		m.dt = int64(n) * f.perInstrPS
		m.compute = float64(n) * f.cfg.InstrEnergy
		m.fetch = float64(n) * f.instrE
		m.draw = m.compute + m.fetch
	}
	if f.now+m.dt >= f.settleDeadline && f.windowOpen() {
		f.settle()
	}
	f.retire(m, n)
}

// retire accounts one fused block. Leakage, on-time and the
// instruction count are derived from the window duration at settle
// time (see settle), so a block is five adds. Block draw is tracked in
// pendingBlock, not the scratch, so it never perturbs the access
// path's cached scratch total.
func (f *fastMachine) retire(m *blockCost, n int) {
	f.pendingBlock += m.draw
	f.res.Energy.Compute += m.compute
	f.res.Energy.CacheRead += m.fetch
	f.computeRetired += uint64(n)
	f.now += m.dt
}
