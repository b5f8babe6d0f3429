package expt

import (
	"fmt"
	"math/rand"
	"testing"

	"wlcache/internal/power"
	"wlcache/internal/sim"
)

// checkTierPair runs one cell under both engine tiers and asserts the
// DESIGN.md §16 contract: counts and checksums identical, energies and
// times within FastTolerance, and infeasible cells failing identically.
func checkTierPair(t *testing.T, kind Kind, opts Options, wl string, scale int, src power.Source) {
	t.Helper()
	id := fmt.Sprintf("%s ml=%d dq=%d", kind, opts.Maxline, opts.DQCap)

	exactCfg := sim.DefaultConfig()
	resE, errE := Run(kind, opts, wl, scale, src, exactCfg)

	fastCfg := sim.DefaultConfig()
	fastCfg.Tier = sim.TierFast
	resF, errF := Run(kind, opts, wl, scale, src, fastCfg)

	if (errE != nil) != (errF != nil) {
		t.Errorf("%s/%s/%s: tier disagreement on feasibility: exact err=%v, fast err=%v",
			id, wl, src, errE, errF)
		return
	}
	if errE != nil {
		if errE.Error() != errF.Error() {
			t.Errorf("%s/%s/%s: error text drift between tiers:\n  exact: %v\n  fast:  %v",
				id, wl, src, errE, errF)
		}
		return
	}
	exact := []GoldenCell{{Kind: id, Workload: wl, Trace: string(src), Fields: FlattenResult(resE)}}
	fast := []GoldenCell{{Kind: id, Workload: wl, Trace: string(src), Fields: FlattenResult(resF)}}
	if err := CompareGoldenCellsTol(fast, exact, false, FastTolerance()); err != nil {
		t.Errorf("%s/%s/%s: %v", id, wl, src, err)
	}
}

// TestFastTierAdaptiveReconfiguration pins the hardest fast-tier
// hazard: wl-dyn raises and lowers the checkpoint reserve mid-run via
// ReserveNotifyBinder, which must settle the open window and re-arm
// its budget against the new threshold (a stale Vbackup would
// otherwise leak into batched windows). Trace3 is the outage-heaviest
// trace (~121 outages), none is the zero-outage degenerate case.
func TestFastTierAdaptiveReconfiguration(t *testing.T) {
	for _, wl := range []string{"sha", "adpcmencode"} {
		for _, src := range []power.Source{power.None, power.Trace1, power.Trace3} {
			checkTierPair(t, "wl-dyn", Options{}, wl, 1, src)
		}
	}
}

// TestFastTierZeroPowerAndOutageHeavy sweeps every design kind through
// the two power extremes: uninterrupted power (the untraced fast path,
// no capacitor at all) and the most unstable trace (outage handling
// re-syncs the exact voltage-space state machine on every failure).
func TestFastTierZeroPowerAndOutageHeavy(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, src := range []power.Source{power.None, power.Trace3} {
			checkTierPair(t, kind, Options{}, "sha", 1, src)
		}
	}
}

// TestFastTierPropertyRandomCells cross-validates the fast tier on a
// deterministic pseudo-random sample of design × workload × trace ×
// parameter-grid cells that the committed golden matrix does not pin:
// extra workloads, non-default maxline and DQ capacities. The seed is
// fixed so failures reproduce.
func TestFastTierPropertyRandomCells(t *testing.T) {
	kinds := AllKinds()
	workloads := []string{"sha", "adpcmencode", "adpcmdecode", "gsmencode", "qsort", "dijkstra"}
	sources := []power.Source{power.None, power.Trace1, power.Trace2, power.Trace3, power.Solar, power.Thermal}
	dqcaps := []int{0, 4, 16}

	n := 24
	if testing.Short() {
		n = 6
	}
	rng := rand.New(rand.NewSource(0x77a57e11))
	for i := 0; i < n; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		wl := workloads[rng.Intn(len(workloads))]
		src := sources[rng.Intn(len(sources))]
		// maxline must stay within the DQ capacity (default 8).
		dq := dqcaps[rng.Intn(len(dqcaps))]
		cap := dq
		if cap == 0 {
			cap = 8
		}
		opts := Options{Maxline: 1 + rng.Intn(cap), DQCap: dq}
		checkTierPair(t, kind, opts, wl, 1, src)
	}
}
