package main

import (
	"fmt"
	"time"

	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/obs"
	"wlcache/internal/sim"
	"wlcache/internal/stats"
)

// The traced run places spans at four points of a cell: the cell
// itself (Cell.Run), the build step (expt.NewDesign + sim.New),
// sim.Run with its program callback, and every call across the
// isa.Machine and sim.Design boundaries. A clock read costs about as
// much as a simulated instruction, so per-call spans read the clock on
// every machineStride-th or accessStride-th call while counting every
// call exactly; the estimate for a boundary is its mean sampled
// duration times its exact call count. Rare calls (Checkpoint, Restore,
// OnBoot) and the cell-level spans are timed on every call.

// The per-call clock sampling strides. They are distinct primes, so
// they neither alias with the power-of-two loop shapes of the kernels
// nor lock the Design samples in phase with the Machine samples that
// enclose them.
const (
	machineStride = 61
	accessStride  = 67
)

var clockBase = time.Now()

// nanotime reads the monotonic clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// sampled is one per-call boundary: an exact call count plus the clock
// samples taken every stride calls.
type sampled struct {
	stride  int64
	calls   int64
	left    int64 // calls until the next sample
	samples int64
	ns      int64 // summed sampled durations, clock cost removed
}

// due counts one call and reports whether it is to be timed.
func (s *sampled) due() bool {
	s.calls++
	s.left--
	if s.left > 0 {
		return false
	}
	s.left = s.stride
	return true
}

// maxSampleNS bounds a plausible single-call sample. A longer one was
// interrupted (preemption on a shared host, a GC pause) and, multiplied
// by the stride, would swamp the estimate, so it is dropped; the call
// itself still counts.
const maxSampleNS = 100_000

// add records one timed call: start and mid are clock reads around
// the call, end a third read right after mid. end-mid is the cost of
// one clock read measured in the same cache and frequency state as the
// call, and is subtracted from the sample. The per-call estimates are
// most sensitive to this correction — it multiplies every call, sampled
// or not — so a calibration taken once at start-up is not good enough.
// The reads are inlined at each call site: a closure around the call
// would itself land inside every sample.
func (s *sampled) add(start, mid, end int64) {
	if mid-start > maxSampleNS {
		return
	}
	s.samples++
	s.ns += (mid - start) - (end - mid)
}

// estimate is the boundary's total time: the mean sampled duration
// times the exact call count.
func (s *sampled) estimate() float64 {
	if s.samples == 0 {
		return 0
	}
	return max(0, float64(s.ns)/float64(s.samples)) * float64(s.calls)
}

// cellTrace collects the spans and counts of one traced cell. A cell
// runs on a single goroutine, so it needs no synchronization.
type cellTrace struct {
	machine   sampled // Load32 + Store32 + Compute
	loads     int64
	stores    int64
	computes  int64
	access    sampled // Design.Access / AccessEB
	inProgram bool    // inside the program callback, hence inside a Machine call
	// timing is set while a sampled Machine call runs. Design calls
	// inside it are counted but not timed: their clock reads would land
	// inside the Machine sample and inflate it.
	timing bool

	checkpoints, restores, boots int64
	checkpointNS, restoreNS      int64
	// Always-timed design calls, split by whether a Machine call
	// encloses them (outages strike inside Load32/Store32/Compute; the
	// final flush runs after the program returns).
	designInNS, designOutNS int64

	wallNS, buildNS, runNS, programNS int64
}

func newCellTrace() *cellTrace {
	return &cellTrace{machine: sampled{stride: machineStride}, access: sampled{stride: accessStride}}
}

// sampleAccess counts one Design access and reports whether to time it.
func (t *cellTrace) sampleAccess() bool {
	return t.access.due() && !t.timing
}

// timedDesign records one always-timed design call.
func (t *cellTrace) timedDesign(d int64) {
	if t.inProgram {
		t.designInNS += d
	} else {
		t.designOutNS += d
	}
}

// layerSplit is a cell's wall time divided among the layers, in ns.
type layerSplit struct {
	Wall, Build, Sim, Workload, Design, Unattributed float64
	Machine, Access                                  float64 // boundary estimates
}

// split derives self times: a layer's span time minus the part its
// child spans cover. Nesting is cell ⊃ {build, sim.Run};
// sim.Run ⊃ program ⊃ Machine calls ⊃ Design calls, plus Design calls
// made by sim.Run outside the program. Self times are estimates (the
// per-call boundaries are sampled) and are floored at zero; unattributed
// time is the rest of the cell span — the gaps between its children
// plus any estimation excess, which makes it negative — so the layers
// and it sum to the wall time by construction.
func (t *cellTrace) split() layerSplit {
	s := layerSplit{
		Wall:    float64(t.wallNS),
		Build:   float64(t.buildNS),
		Machine: t.machine.estimate(),
		Access:  t.access.estimate(),
	}
	s.Design = s.Access + float64(t.designInNS+t.designOutNS)
	s.Workload = max(0, float64(t.programNS)-s.Machine)
	s.Sim = max(0, float64(t.runNS-t.programNS-t.designOutNS)+s.Machine-s.Access-float64(t.designInNS))
	s.Unattributed = s.Wall - s.Build - s.Sim - s.Workload - s.Design
	return s
}

// tracedMachine wraps the isa.Machine that sim.Run hands the program.
type tracedMachine struct {
	m isa.Machine
	t *cellTrace
}

func (tm *tracedMachine) Load32(addr uint32) uint32 {
	tm.t.loads++
	if !tm.t.machine.due() {
		return tm.m.Load32(addr)
	}
	tm.t.timing = true
	start := nanotime()
	v := tm.m.Load32(addr)
	mid := nanotime()
	tm.t.machine.add(start, mid, nanotime())
	tm.t.timing = false
	return v
}

func (tm *tracedMachine) Store32(addr uint32, v uint32) {
	tm.t.stores++
	if !tm.t.machine.due() {
		tm.m.Store32(addr, v)
		return
	}
	tm.t.timing = true
	start := nanotime()
	tm.m.Store32(addr, v)
	mid := nanotime()
	tm.t.machine.add(start, mid, nanotime())
	tm.t.timing = false
}

func (tm *tracedMachine) Compute(n int) {
	tm.t.computes++
	if !tm.t.machine.due() {
		tm.m.Compute(n)
		return
	}
	tm.t.timing = true
	start := nanotime()
	tm.m.Compute(n)
	mid := nanotime()
	tm.t.machine.add(start, mid, nanotime())
	tm.t.timing = false
}

// tracedDesign wraps the sim.Design handed to sim.New. Embedding the
// interface passes Name, ReserveEnergy, LeakPower and DurableEqual
// through; the optional interfaces are added per wrapped design by
// wrapDesign, so the simulator sees exactly the capabilities of the
// design underneath.
type tracedDesign struct {
	sim.Design
	t *cellTrace
}

func (d *tracedDesign) Access(now int64, op isa.Op, addr uint32, val uint32) (uint32, int64, energy.Breakdown) {
	if !d.t.sampleAccess() {
		return d.Design.Access(now, op, addr, val)
	}
	start := nanotime()
	v, done, eb := d.Design.Access(now, op, addr, val)
	mid := nanotime()
	d.t.access.add(start, mid, nanotime())
	return v, done, eb
}

func (d *tracedDesign) Checkpoint(now int64) (int64, energy.Breakdown) {
	start := nanotime()
	done, eb := d.Design.Checkpoint(now)
	dur := nanotime() - start
	d.t.checkpoints++
	d.t.checkpointNS += dur
	d.t.timedDesign(dur)
	return done, eb
}

func (d *tracedDesign) Restore(now int64) (int64, energy.Breakdown) {
	start := nanotime()
	done, eb := d.Design.Restore(now)
	dur := nanotime() - start
	d.t.restores++
	d.t.restoreNS += dur
	d.t.timedDesign(dur)
	return done, eb
}

// The optional-interface parts. Each forwards one optional method of
// the wrapped design; wrapDesign composes exactly the parts the design
// implements.
type (
	ebPart struct {
		t  *cellTrace
		eb sim.EBAccessor
	}
	rebootPart struct {
		t  *cellTrace
		rb sim.Rebooter
	}
	notifyPart   struct{ n sim.ReserveNotifyBinder }
	probePart    struct{ p sim.EnergyProbeBinder }
	extraPart    struct{ x sim.ExtraStatser }
	observerPart struct{ o sim.ObserverBinder }
)

func (p ebPart) AccessEB(now int64, op isa.Op, addr uint32, val uint32, eb *energy.Breakdown) (uint32, int64) {
	if !p.t.sampleAccess() {
		return p.eb.AccessEB(now, op, addr, val, eb)
	}
	start := nanotime()
	v, done := p.eb.AccessEB(now, op, addr, val, eb)
	mid := nanotime()
	p.t.access.add(start, mid, nanotime())
	return v, done
}

func (p rebootPart) OnBoot(lastOn, prevOn int64) {
	start := nanotime()
	p.rb.OnBoot(lastOn, prevOn)
	p.t.boots++
	p.t.timedDesign(nanotime() - start)
}

func (p notifyPart) BindReserveChanged(f func())                    { p.n.BindReserveChanged(f) }
func (p probePart) BindEnergyProbe(f func(newReserve float64) bool) { p.p.BindEnergyProbe(f) }
func (p extraPart) ExtraStats() stats.DesignExtra                   { return p.x.ExtraStats() }
func (p observerPart) BindObserver(r *obs.Recorder)                 { p.o.BindObserver(r) }

// optional is the set of optional sim interfaces a design implements.
type optional uint8

const (
	optEB optional = 1 << iota
	optReboot
	optNotify
	optProbe
	optExtra
	optObserver
)

func (o optional) String() string {
	names := []string{"EBAccessor", "Rebooter", "ReserveNotifyBinder", "EnergyProbeBinder", "ExtraStatser", "ObserverBinder"}
	var out []string
	for i, n := range names {
		if o&(1<<i) != 0 {
			out = append(out, n)
		}
	}
	return fmt.Sprint(out)
}

// optionalOf reports which optional sim interfaces d implements.
func optionalOf(d sim.Design) optional {
	var o optional
	if _, ok := d.(sim.EBAccessor); ok {
		o |= optEB
	}
	if _, ok := d.(sim.Rebooter); ok {
		o |= optReboot
	}
	if _, ok := d.(sim.ReserveNotifyBinder); ok {
		o |= optNotify
	}
	if _, ok := d.(sim.EnergyProbeBinder); ok {
		o |= optProbe
	}
	if _, ok := d.(sim.ExtraStatser); ok {
		o |= optExtra
	}
	if _, ok := d.(sim.ObserverBinder); ok {
		o |= optObserver
	}
	return o
}

// The wrapper shapes, one per optional-interface set that a registered
// design has (see TestWrapDesignKeepsInterfaces).
type (
	wrapE struct {
		*tracedDesign
		ebPart
	}
	wrapX struct {
		*tracedDesign
		extraPart
	}
	wrapEX struct {
		*tracedDesign
		ebPart
		extraPart
	}
	wrapEXO struct {
		*tracedDesign
		ebPart
		extraPart
		observerPart
	}
	wrapEXOall struct {
		*tracedDesign
		ebPart
		extraPart
		observerPart
		rebootPart
		notifyPart
		probePart
	}
)

// wrapDesign returns d wrapped for tracing into t, exposing exactly
// the optional interfaces d exposes. A design with an interface set no
// wrapper shape covers is an error: tracing it would silently change
// what the simulator does with it.
func wrapDesign(d sim.Design, t *cellTrace) (sim.Design, error) {
	base := &tracedDesign{Design: d, t: t}
	eb, _ := d.(sim.EBAccessor)
	x, _ := d.(sim.ExtraStatser)
	o, _ := d.(sim.ObserverBinder)
	switch set := optionalOf(d); set {
	case optEB:
		return wrapE{base, ebPart{t, eb}}, nil
	case optExtra:
		return wrapX{base, extraPart{x}}, nil
	case optEB | optExtra:
		return wrapEX{base, ebPart{t, eb}, extraPart{x}}, nil
	case optEB | optExtra | optObserver:
		return wrapEXO{base, ebPart{t, eb}, extraPart{x}, observerPart{o}}, nil
	case optEB | optExtra | optObserver | optReboot | optNotify | optProbe:
		return wrapEXOall{base, ebPart{t, eb}, extraPart{x}, observerPart{o},
			rebootPart{t, d.(sim.Rebooter)}, notifyPart{d.(sim.ReserveNotifyBinder)}, probePart{d.(sim.EnergyProbeBinder)}}, nil
	default:
		return nil, fmt.Errorf("no traced wrapper for design %s with optional interfaces %v", d.Name(), set)
	}
}

// Compile-time checks that the wrapper shapes carry their interfaces.
var (
	_ sim.EBAccessor          = wrapE{}
	_ sim.ExtraStatser        = wrapX{}
	_ sim.ObserverBinder      = wrapEXO{}
	_ sim.Rebooter            = wrapEXOall{}
	_ sim.ReserveNotifyBinder = wrapEXOall{}
	_ sim.EnergyProbeBinder   = wrapEXOall{}
)
