package sim

import (
	"fmt"
	"runtime"

	"wlcache/internal/energy"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/power"
)

// defaultMaxOutages aborts runaway simulations that make no progress.
const defaultMaxOutages = 5_000_000

// Simulator executes one workload on one Design under one power
// trace. It implements isa.Machine; the workload calls back into it.
type Simulator struct {
	cfg    Config
	design Design
	nvm    *mem.NVM
	cap    *energy.Capacitor
	golden *mem.Store

	now      int64
	bootTime int64
	prevOn   int64
	lastOn   int64

	instrAtBoot uint64
	noProgress  int

	// Hot-path caches, all derived from values that are constant per
	// run or change only at announced points. cursor integrates the
	// trace without re-locating the current segment on every event; vb
	// is Vbackup(design.ReserveEnergy()) — a sqrt — refreshed by
	// refreshThresholds at reserve changes; leakW, perInstrPS and instrE
	// hoist interface calls that are loop-invariant out of
	// access/Compute.
	cursor     *power.Cursor
	accessEB   EBAccessor // the design, adapted by New if it lacks AccessEB
	vb         float64
	leakW      float64
	perInstrPS int64
	instrE     float64
	untraced   bool // cfg.Trace == nil

	// machine is the tier's isa.Machine, chosen once in New: the
	// Simulator itself at the exact tier, a fastMachine (fast.go) when
	// the fast tier can engage. Run hands it to the program.
	machine tierMachine

	// ebScratch is the per-event breakdown buffer handed to AccessEB.
	// Passing a pointer to a local through the interface call would make
	// the local escape — one heap allocation per simulated access; the
	// simulator is single-threaded per run, so one reused buffer is safe.
	ebScratch energy.Breakdown

	// inCheckpoint marks the JIT checkpoint window, during which draws
	// may legitimately spend the reserve band down toward VMin.
	inCheckpoint bool

	res Result
}

// tierMachine is the per-event engine of one tier. enter runs after
// the initial charge-up and after every outage; exit runs before the
// final flush. Between the two the machine owns the capacitor state.
type tierMachine interface {
	isa.Machine
	enter()
	exit()
}

// simAbort carries a fatal simulation error through the workload's
// stack via panic/recover (workloads have no error channel).
type simAbort struct{ err error }

// New builds a simulator for the given design. The design must have
// been constructed over nvm so that traffic accounting and durability
// checks observe the same memory.
func New(cfg Config, design Design, nvm *mem.NVM) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxOutages == 0 {
		cfg.MaxOutages = defaultMaxOutages
	}
	s := &Simulator{
		cfg:    cfg,
		design: design,
		nvm:    nvm,
		cap:    energy.NewCapacitor(cfg.CapacitorF, cfg.VMin, cfg.VMax),
		golden: mem.NewStore(),
	}
	s.perInstrPS = cfg.CyclePS + cfg.ICache.perInstrStall(cfg.CyclePS)
	s.instrE = cfg.ICache.instrEnergy()
	s.leakW = design.LeakPower()
	s.untraced = cfg.Trace == nil
	if cfg.Trace != nil {
		s.cursor = power.NewCursor(cfg.Trace)
	}
	s.accessEB, _ = design.(EBAccessor)
	if s.accessEB == nil {
		s.accessEB = byValueAccess{design}
	}
	s.refreshThresholds()
	// The initial boot happens with a full capacitor.
	s.cap.SetVoltage(cfg.VMax)
	// The tier is decided here and nowhere else. The fast machine only
	// engages on plain measurement runs: a fault plan and a recorder
	// both observe per-event capacitor state the fast tier defers.
	s.machine = s
	probe, reserveChanged := s.probeReserve, s.refreshThresholds
	if cfg.Tier == TierFast && cfg.FaultPlan == nil && cfg.Obs == nil {
		f := newFastMachine(s)
		s.machine, probe, reserveChanged = f, f.probeReserve, f.reserveChanged
	}
	if binder, ok := design.(EnergyProbeBinder); ok {
		binder.BindEnergyProbe(probe)
	}
	if binder, ok := design.(ReserveNotifyBinder); ok {
		binder.BindReserveChanged(reserveChanged)
	}
	// Observability wiring: one recorder reaches the capacitor (voltage
	// gauge), the NVM port (contention histogram) and the design (its
	// own event sites). All sites stay nil-checked when cfg.Obs is nil.
	if cfg.Obs != nil {
		s.cap.SetSampler(cfg.Obs.VoltageGauge())
		nvm.SetPortObserver(cfg.Obs)
		if binder, ok := design.(ObserverBinder); ok {
			binder.BindObserver(cfg.Obs)
		}
	}
	// Sanity: the initial reserve must be chargeable on this capacitor.
	// Only traced runs care — with uninterrupted power Vbackup is never
	// consulted, and even infeasible designs (eager-wb on the default
	// capacitor, §7) can run for reference and fault audits.
	if cfg.Trace != nil {
		if cfg.Von(s.vb) <= s.vb {
			return nil, fmt.Errorf("sim: reserve %.3g J needs Vbackup %.3f V, unreachable below VMax %.3f V",
				design.ReserveEnergy(), s.vb, cfg.VMax)
		}
	}
	return s, nil
}

// refreshThresholds recomputes the cached Vbackup from the design's
// current reserve. It runs at construction, after every OnBoot, and —
// via ReserveNotifyBinder — whenever an adaptive design changes its
// reserve mid-run (dynamic maxline raises), so the cached threshold is
// never consulted stale.
func (s *Simulator) refreshThresholds() {
	s.vb = s.cfg.Vbackup(s.design.ReserveEnergy())
}

// Vbackup returns the checkpoint threshold currently enforced by the
// voltage monitor (tests assert it tracks adaptive reserve changes).
func (s *Simulator) Vbackup() float64 { return s.vb }

// probeReserve reports whether the capacitor currently holds enough
// charge to adopt a larger JIT reserve (dynamic adaptation).
func (s *Simulator) probeReserve(newReserve float64) bool {
	return s.probe(newReserve, func() {})
}

// probe is probeReserve for both machines. materialize brings the
// capacitor up to date; it runs only when the answer reads the charge.
func (s *Simulator) probe(newReserve float64, materialize func()) bool {
	if s.cfg.Trace == nil {
		return true // unlimited power
	}
	vb := s.cfg.Vbackup(newReserve)
	if s.cfg.Von(vb) <= vb {
		return false
	}
	materialize()
	// Require some compute headroom above the raised threshold so the
	// raise does not immediately trigger a checkpoint.
	const headroom = 100e-9
	return s.cap.EnergyAbove(vb) > headroom
}

// Run executes the program to completion and returns the collected
// result. The program's return value is recorded as Result.Checksum.
func (s *Simulator) Run(name string, program func(m isa.Machine) uint32) (res Result, err error) {
	s.res = Result{Design: s.design.Name(), Workload: name, Trace: "none"}
	if s.cfg.Trace != nil {
		s.res.Trace = s.cfg.Trace.Name
	}
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(simAbort); ok {
				res, err = s.res, a.err
				return
			}
			panic(r)
		}
	}()

	// Initial charge-up: a harvesting device starts dead and must
	// first fill the capacitor to Von. This is what makes very large
	// buffers slow (Figure 10(b)): their charging time dominates.
	// The charge-up is an off window like any other, so it is recorded
	// as one: without it the cycle ledger could not attribute the
	// pre-boot dead time and sum(categories) would undershoot OffTime.
	if s.cfg.Trace != nil {
		if _, ok := s.recharge(); !ok {
			return s.res, fmt.Errorf("trace %s can never charge the capacitor", s.cfg.Trace.Name)
		}
		s.bootTime = s.now
	}
	s.machine.enter()
	sum := program(s.machine)
	s.machine.exit()
	s.res.Checksum = sum
	s.res.ExecTime = s.now

	// Final shutdown flush: not part of the measured execution time,
	// but it completes durability so the NVM image can be audited.
	s.checkpoint(false, false)
	if s.cfg.CheckInvariants {
		if derr := s.design.DurableEqual(s.golden); derr != nil {
			return s.res, fmt.Errorf("final durability check failed (%v): %w", derr, ErrCrashConsistency)
		}
	}
	s.res.NVMTraffic = s.nvm.Traffic()
	if es, ok := s.design.(ExtraStatser); ok {
		s.res.Extra = es.ExtraStats()
	}
	return s.res, nil
}

// Capacitor exposes the energy buffer (tests).
func (s *Simulator) Capacitor() *energy.Capacitor { return s.cap }

// --- isa.Machine implementation (the exact tier) ---

func (s *Simulator) enter() {}
func (s *Simulator) exit()  {}

// Load32 performs an architectural load through the design.
func (s *Simulator) Load32(addr uint32) uint32 {
	s.opContext()
	s.res.Loads++
	return s.checkLoad(addr, s.access(isa.OpLoad, addr, 0))
}

// Store32 performs an architectural store through the design.
func (s *Simulator) Store32(addr uint32, v uint32) {
	s.opContext()
	s.recordStore(addr, v)
	s.access(isa.OpStore, addr, v)
}

// Compute accounts for n ALU instructions, checking the voltage
// monitor every ComputeChunk instructions.
func (s *Simulator) Compute(n int) {
	if n < 0 {
		s.abort(fmt.Errorf("negative Compute(%d)", n))
	}
	for n > 0 {
		chunk := n
		if chunk > s.cfg.ComputeChunk {
			chunk = s.cfg.ComputeChunk
		}
		eb := energy.Breakdown{Compute: float64(chunk) * s.cfg.InstrEnergy, CacheRead: float64(chunk) * s.instrE}
		s.advance(s.now+int64(chunk)*s.perInstrPS, &eb, &s.res.OnTime)
		s.res.Instructions += uint64(chunk)
		s.checkPower()
		n -= chunk
	}
}

// access runs one memory operation: the design models the hierarchy;
// the simulator adds the 1-cycle pipeline slot and core energy.
func (s *Simulator) access(op isa.Op, addr uint32, val uint32) uint32 {
	s.ebScratch = energy.Breakdown{}
	v, end := s.accessEvent(op, addr, val)
	s.advance(end, &s.ebScratch, &s.res.OnTime)
	s.res.Instructions++
	s.checkPower()
	return v
}

// --- shared by both machines ---

// opContext samples the workload call site of the memory operation in
// flight for the recorder. Both machines' Load32/Store32 call it
// directly, which is the stack depth memOpPC assumes; the nil test
// inlines, so unrecorded runs pay no call.
func (s *Simulator) opContext() {
	if s.cfg.Obs != nil {
		s.sampleOpContext()
	}
}

func (s *Simulator) sampleOpContext() {
	if s.cfg.Obs.WantsOpContext() {
		s.cfg.Obs.OpContext(memOpPC())
	}
}

// checkLoad compares a loaded value against the architectural golden
// image when invariant checking is on. The test inlines; the check
// itself does not.
func (s *Simulator) checkLoad(addr, v uint32) uint32 {
	if s.cfg.CheckInvariants {
		s.checkGolden(addr, v)
	}
	return v
}

func (s *Simulator) checkGolden(addr, v uint32) {
	if g := s.golden.Read(addr); g != v {
		s.abort(fmt.Errorf("load %#x returned %#x, architectural value is %#x (design %s): %w",
			addr, v, g, s.design.Name(), ErrCrashConsistency))
	}
}

// recordStore updates the golden image — only runs that consult it
// maintain it — and counts the store. Loads and stores are counted
// before their access so the fast tier's settle, which can run inside
// an access and derives Instructions from Loads + Stores + retired
// compute blocks, sees the completing event.
func (s *Simulator) recordStore(addr, v uint32) {
	if s.cfg.CheckInvariants {
		s.golden.Write(addr, v)
	}
	s.res.Stores++
}

// accessEvent runs the design's side of one memory operation into the
// scratch breakdown and adds the pipeline slot's core and fetch energy.
// It returns the loaded value and the event's end time. The scratch is
// accumulated into, never reset here: the exact tier zeroes it per
// event, the fast tier per settle window.
func (s *Simulator) accessEvent(op isa.Op, addr uint32, val uint32) (uint32, int64) {
	eb := &s.ebScratch
	v, done := s.accessEB.AccessEB(s.now, op, addr, val, eb)
	end := s.now + s.perInstrPS
	if done > end {
		end = done
	}
	eb.Compute += s.cfg.InstrEnergy
	eb.CacheRead += s.instrE
	return v, end
}

// advance moves time to `to`, integrating harvest and drawing the
// event energy plus leakage, and accumulating dt into the given phase
// counter.
func (s *Simulator) advance(to int64, eb *energy.Breakdown, phase *int64) {
	dt := to - s.now
	if dt < 0 {
		s.abort(fmt.Errorf("time went backwards: %d -> %d", s.now, to))
	}
	leak := s.leakW * float64(dt) / 1e12
	eb.Leak += leak
	if s.cfg.Trace != nil {
		h := s.cfg.OnHarvestEff * s.cursor.Integrate(s.now, to)
		e := eb.Total()
		// Checkpoints spend the reserved band unguarded; the
		// post-checkpoint reserve check in powerFail polices VMin.
		if !s.cap.Step(h, e, s.cfg.VMin, !s.inCheckpoint) {
			s.abort(fmt.Errorf("at t=%d ps (design %s): %w", to, s.design.Name(),
				s.cap.UnderVoltageError(e, s.cfg.VMin)))
		}
	}
	s.res.Energy.Add(*eb)
	*phase += dt
	s.now = to
}

// checkPower triggers the JIT checkpoint + outage + restore sequence
// when the capacitor has discharged to the design's Vbackup, or when
// an installed fault plan forces a crash at this boundary. The common
// case — no fault plan, voltage above threshold — must inline into the
// per-event loop, so everything else lives in checkPowerSlow.
func (s *Simulator) checkPower() {
	if s.cfg.FaultPlan == nil && (s.untraced || s.cap.Voltage() >= s.vb) {
		return
	}
	s.checkPowerSlow()
}

func (s *Simulator) checkPowerSlow() {
	if s.cfg.FaultPlan != nil {
		if s.cfg.FaultPlan.ShouldCrash(s.res.Instructions, s.now) {
			s.powerFail(true)
			return
		}
		if s.cfg.Trace == nil || s.cap.Voltage() >= s.vb {
			return
		}
	}
	s.powerFail(false)
}

// powerFail runs one outage: JIT checkpoint, power collapse, recharge,
// restore. forced marks crashes injected by the fault plan; those also
// work without a power trace (the capacitor is then left untouched —
// the supply glitched, it did not drain).
func (s *Simulator) powerFail(forced bool) {
	s.res.Outages++
	if s.res.Outages > s.cfg.MaxOutages {
		s.abort(fmt.Errorf("exceeded %d outages; configuration cannot make progress: %w",
			s.cfg.MaxOutages, ErrNoProgress))
	}
	onDur := s.now - s.bootTime
	s.cfg.Obs.PowerFailure(s.now, s.cap.Voltage(), forced)

	// JIT checkpoint, powered by the reserved energy band.
	s.checkpoint(forced, true)
	if s.cfg.Trace != nil && s.cap.Voltage() < s.cfg.VMin-1e-9 {
		s.abort(fmt.Errorf("V=%.3f < VMin=%.3f after checkpoint (design %s): %w",
			s.cap.Voltage(), s.cfg.VMin, s.design.Name(), ErrReserveExhausted))
	}
	if s.cfg.CheckInvariants {
		if err := s.design.DurableEqual(s.golden); err != nil {
			s.abort(fmt.Errorf("outage %d (%v): %w", s.res.Outages, err, ErrCrashConsistency))
		}
	}

	if s.cfg.Trace != nil {
		// Power collapse: below the operating threshold the dying
		// regulator and monitor burn whatever reserve the checkpoint did
		// not use — the reserved band is energy that could never be spent
		// on computation (§1, §2.3.3). Recharge therefore restarts from
		// VMin, and a design with a larger reserve wastes more per outage.
		s.res.ReserveWasted += s.cap.EnergyAbove(s.cfg.VMin)
		if need, ok := s.recharge(); !ok {
			s.abort(fmt.Errorf("trace %s can never recharge %.3g J", s.cfg.Trace.Name, need))
		}
	}

	// Boot: restore state, then let the runtime system adapt.
	restoreStart := s.now
	done, eb := s.design.Restore(s.now)
	s.advance(done, &eb, &s.res.RestoreTime)
	// A volatile instruction cache comes back cold: refetch the code
	// working set from NVM.
	if dt, ieb := s.cfg.ICache.coldRefill(); dt > 0 {
		s.advance(s.now+dt, &ieb, &s.res.RestoreTime)
	}
	s.cfg.Obs.RestoreDone(restoreStart, s.now, eb.Total())
	s.prevOn, s.lastOn = s.lastOn, onDur
	if rb, ok := s.design.(Rebooter); ok {
		rb.OnBoot(s.lastOn, s.prevOn)
	}
	// Boot-time adaptation may have changed the reserve; recompute the
	// cached threshold even for designs without a reserve-change
	// notification (one sqrt per outage, off the hot path).
	s.refreshThresholds()
	s.bootTime = s.now

	// Forward-progress guard: a period that retired no instructions.
	if s.res.Instructions == s.instrAtBoot {
		s.noProgress++
		if s.noProgress >= 8 {
			s.abort(fmt.Errorf("%d consecutive outages retired no instructions (design %s, trace %s): %w",
				s.noProgress, s.design.Name(), s.res.Trace, ErrNoProgress))
		}
	} else {
		s.noProgress = 0
	}
	s.instrAtBoot = s.res.Instructions
}

// checkpoint runs one JIT checkpoint inside the fault plan's and the
// recorder's brackets. An outage's checkpoint is timed: it takes
// simulated time and spends the reserved band. The final shutdown
// flush is neither.
func (s *Simulator) checkpoint(forced, timed bool) {
	if s.cfg.FaultPlan != nil {
		s.cfg.FaultPlan.CheckpointStart(s.now, forced)
	}
	start := s.now
	linesBefore := s.checkpointLines()
	done, eb := s.design.Checkpoint(s.now)
	if timed {
		s.inCheckpoint = true
		s.advance(done, &eb, &s.res.CheckpointTime)
		s.inCheckpoint = false
	}
	if s.cfg.FaultPlan != nil {
		s.cfg.FaultPlan.CheckpointEnd(s.now)
	}
	s.cfg.Obs.CheckpointDone(start, done, forced, eb.Total(), s.linesDelta(linesBefore))
}

// recharge models one off period: from VMin, harvest until the
// capacitor reaches Von. The threshold reflects the *current* reserve
// (it may have been adapted at this boot). It reports false, with the
// energy it needed, when the trace can never deliver it.
func (s *Simulator) recharge() (need float64, ok bool) {
	s.cap.SetVoltage(s.cfg.VMin)
	von := s.cfg.Von(s.cfg.Vbackup(s.design.ReserveEnergy()))
	need = 0.5 * s.cfg.CapacitorF * (von*von - s.cap.Voltage()*s.cap.Voltage())
	offStart := s.now
	if need > 0 {
		dt, ok := s.cfg.Trace.TimeToHarvest(s.now, need)
		if !ok {
			return need, false
		}
		s.res.OffTime += dt
		s.now += dt
	}
	s.cap.SetVoltage(von)
	s.cfg.Obs.Outage(offStart, s.now)
	s.cfg.Obs.VoltageMark(s.now, von)
	return need, true
}

// checkpointLines reads the design's cumulative flushed-line counter,
// or -1 when the design does not expose one. Paired with linesDelta it
// attributes flushed lines to individual checkpoints for the recorder.
func (s *Simulator) checkpointLines() int64 {
	if s.cfg.Obs == nil {
		return -1 // not recording; skip the ExtraStats copy
	}
	if es, ok := s.design.(ExtraStatser); ok {
		return int64(es.ExtraStats().CheckpointLines)
	}
	return -1
}

// linesDelta converts a checkpointLines snapshot into the lines flushed
// since it was taken (-1 when unknown).
func (s *Simulator) linesDelta(before int64) int {
	if before < 0 {
		return -1
	}
	return int(s.checkpointLines() - before)
}

// memOpPC captures the workload call site of the memory operation in
// flight — the closest host analogue of the store PC a hardware
// profiler would latch. Skip 5 logical frames (Callers, memOpPC,
// sampleOpContext, the inlined opContext, Load32/Store32) to land on
// the workload; -1 turns the return address into the call
// instruction so ResolvePC names the right source line. Only called
// when observability is on.
func memOpPC() uint64 {
	var pcs [1]uintptr
	if runtime.Callers(5, pcs[:]) < 1 {
		return 0
	}
	return uint64(pcs[0] - 1)
}

func (s *Simulator) abort(err error) {
	panic(simAbort{err})
}
