package sim

import (
	"math"
	"testing"

	"wlcache/internal/core"
	"wlcache/internal/isa"
	"wlcache/internal/mem"
	"wlcache/internal/power"
)

// TestVbackupCacheDynamicRaise verifies the cached threshold is
// invalidated through the reserve-change notification: driving a
// dynamic WL-Cache past its maxline (with an always-yes energy probe —
// no trace) must raise the reserve and immediately refresh the
// simulator's cached Vbackup, with no outage in between. Each tier
// binds its own notification callback, so both are checked.
func TestVbackupCacheDynamicRaise(t *testing.T) {
	for _, tier := range tiers {
		t.Run(tier.String(), func(t *testing.T) {
			nvm := mem.NewNVM(mem.DefaultNVMParams())
			ccfg := core.DefaultConfig()
			ccfg.Adaptive.Mode = core.AdaptDynamic
			ccfg.Adaptive.MaxMaxline = ccfg.DQCap
			// Waterline == maxline disables background cleaning, so the
			// dirty population actually reaches the maxline bound and the
			// stall path must choose between waiting and raising.
			ccfg.Maxline = 3
			ccfg.Waterline = 3
			wl := core.New(ccfg, nvm)

			scfg := DefaultConfig() // no trace: the probe always affords a raise
			scfg.Tier = tier
			s, err := New(scfg, wl, nvm)
			if err != nil {
				t.Fatal(err)
			}
			before := s.Vbackup()
			if want := scfg.Vbackup(wl.ReserveEnergy()); math.Float64bits(before) != math.Float64bits(want) {
				t.Fatalf("initial Vbackup %g, want %g", before, want)
			}
			maxlineBefore := wl.Maxline()

			// Dirty more distinct lines than maxline allows; the dynamic
			// policy raises maxline instead of stalling on write-backs.
			lineBytes := ccfg.Geometry.LineBytes
			for i := 0; i <= maxlineBefore+4; i++ {
				s.Store32(uint32(0x1000+i*lineBytes), uint32(i))
			}
			if wl.Maxline() <= maxlineBefore {
				t.Fatalf("maxline %d did not raise (was %d)", wl.Maxline(), maxlineBefore)
			}
			after := s.Vbackup()
			if want := scfg.Vbackup(wl.ReserveEnergy()); math.Float64bits(after) != math.Float64bits(want) {
				t.Fatalf("cached Vbackup %g stale after raise, want %g", after, want)
			}
			if after <= before {
				t.Fatalf("Vbackup did not rise with the reserve: %g -> %g", before, after)
			}
		})
	}
}

// TestVbackupCacheOnBoot verifies the boot-time (AdaptStatic) path: a
// reconfiguration delivered via OnBoot must leave the cached threshold
// equal to a recomputation from the design's current reserve.
func TestVbackupCacheOnBoot(t *testing.T) {
	nvm := mem.NewNVM(mem.DefaultNVMParams())
	ccfg := core.DefaultConfig()
	ccfg.Adaptive.Mode = core.AdaptStatic
	wl := core.New(ccfg, nvm)

	scfg := DefaultConfig()
	s, err := New(scfg, wl, nvm)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Vbackup()

	// A collapsing on-interval (ratio far below ShrinkRatio) forces the
	// controller to shrink maxline; feed it straight through the
	// Rebooter hook the simulator uses after Restore.
	rb := Design(wl).(Rebooter)
	old := wl.Maxline()
	rb.OnBoot(1_000_000, 100_000_000_000)
	if wl.Maxline() >= old {
		t.Fatalf("maxline %d did not shrink (was %d)", wl.Maxline(), old)
	}
	after := s.Vbackup()
	if want := scfg.Vbackup(wl.ReserveEnergy()); math.Float64bits(after) != math.Float64bits(want) {
		t.Fatalf("cached Vbackup %g stale after OnBoot, want %g", after, want)
	}
	if math.Float64bits(after) == math.Float64bits(before) && wl.Maxline() != old {
		t.Fatalf("Vbackup unchanged (%g) despite maxline %d -> %d", after, old, wl.Maxline())
	}
}

// TestVbackupCacheAcrossOutages runs an adaptive design end to end on a
// real trace and asserts the invariant the cache must uphold: at run
// end the cached threshold equals a fresh recomputation.
func TestVbackupCacheAcrossOutages(t *testing.T) {
	for _, mode := range []core.AdaptiveMode{core.AdaptStatic, core.AdaptDynamic} {
		nvm := mem.NewNVM(mem.DefaultNVMParams())
		ccfg := core.DefaultConfig()
		ccfg.Adaptive.Mode = mode
		wl := core.New(ccfg, nvm)

		scfg := DefaultConfig()
		scfg.Trace = power.Get(power.Trace1)
		s, err := New(scfg, wl, nvm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run("small", func(m isa.Machine) uint32 {
			h := uint32(2166136261)
			for i := 0; i < 4000; i++ {
				addr := uint32(0x1000 + (i%900)*4)
				m.Store32(addr, uint32(i))
				h = (h ^ m.Load32(addr)) * 16777619
				m.Compute(40)
			}
			return h
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Outages == 0 {
			t.Fatalf("mode %v: no outages; trace too generous for the test", mode)
		}
		if got, want := s.Vbackup(), scfg.Vbackup(wl.ReserveEnergy()); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("mode %v: cached Vbackup %g, recomputed %g", mode, got, want)
		}
	}
}
