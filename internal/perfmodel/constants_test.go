package perfmodel

// This file re-derives every calibrated constant in Default() from the
// paper's published anchors, so the provenance of each number is
// executable documentation (see DESIGN.md §4). If someone edits a
// constant, the derivation here says exactly which paper measurement
// it came from and by how much the edit diverges.

import (
	"math"
	"testing"

	"ecosched/internal/paperdata"
)

func TestDeriveThermalConstants(t *testing.T) {
	c := Default()
	// Two temperature anchors (Table 2) against two CPU-power anchors:
	//   T_std = T0 + Rth·P_std,  T_best = T0 + Rth·P_best
	// ⇒ Rth = ΔT/ΔP, T0 = T_std − Rth·P_std.
	rth := (paperdata.Table2Standard.AvgCPUTempC - paperdata.Table2Best.AvgCPUTempC) /
		(paperdata.Table2Standard.AvgCPUWatts - paperdata.Table2Best.AvgCPUWatts)
	t0 := paperdata.Table2Standard.AvgCPUTempC - rth*paperdata.Table2Standard.AvgCPUWatts
	if math.Abs(rth-c.ThermalRthCPerW) > 1e-3 {
		t.Fatalf("Rth derived %.5f, frozen %.5f", rth, c.ThermalRthCPerW)
	}
	if math.Abs(t0-c.ThermalT0C) > 0.05 {
		t.Fatalf("T0 derived %.3f, frozen %.3f", t0, c.ThermalT0C)
	}
}

func TestDeriveFanAndBaseConstants(t *testing.T) {
	c := Default()
	// Non-CPU system power at the two Table 2 operating points:
	//   N_std = 216.6 − 120.4 = 96.2 W, N_best = 190.1 − 97.4 = 92.7 W.
	// The difference is fan power: fanCoef = ΔN/ΔT; the base is what
	// remains after the standard point's fan draw.
	nStd := paperdata.Table2Standard.AvgSystemWatts - paperdata.Table2Standard.AvgCPUWatts
	nBest := paperdata.Table2Best.AvgSystemWatts - paperdata.Table2Best.AvgCPUWatts
	dT := paperdata.Table2Standard.AvgCPUTempC - paperdata.Table2Best.AvgCPUTempC
	fanCoef := (nStd - nBest) / dT
	if math.Abs(fanCoef-c.FanCoefWPerC) > 1e-3 {
		t.Fatalf("fanCoef derived %.5f, frozen %.5f", fanCoef, c.FanCoefWPerC)
	}
	base := nStd - fanCoef*(paperdata.Table2Standard.AvgCPUTempC-c.ThermalT0C)
	if math.Abs(base-c.BaseSystemW) > 0.05 {
		t.Fatalf("base derived %.3f, frozen %.3f", base, c.BaseSystemW)
	}
}

func TestDeriveCorePowerLadder(t *testing.T) {
	c := Default()
	// Measured P-states: per-core power = (package − uncore)/32 at the
	// two Table 2 anchors.
	for _, tc := range []struct {
		khz      int
		packageW float64
	}{
		{2_500_000, paperdata.Table2Standard.AvgCPUWatts},
		{2_200_000, paperdata.Table2Best.AvgCPUWatts},
	} {
		derived := (tc.packageW - c.UncoreW) / float64(paperdata.CPUCores)
		if math.Abs(derived-c.CorePowerW[tc.khz]) > 1e-9 {
			t.Fatalf("core power @%d derived %.6f, frozen %.6f", tc.khz, derived, c.CorePowerW[tc.khz])
		}
	}
	// 1.5 GHz has no Table 2 anchor; it is chosen so the Table 1
	// performance column's 0.90 at (32, 1.5 GHz) holds through the
	// G = E × W identity. Verify the implied relative performance lands
	// in the column's rounding band.
	g := c.GFLOPS(Config{Cores: 32, FreqKHz: 1_500_000, ThreadsPerCore: 1})
	rel := g / c.GFLOPS(StandardConfig())
	if rel < 0.875 || rel > 0.925 {
		t.Fatalf("implied perf @1.5 GHz = %.3f, Table 1 column says 0.90", rel)
	}
}

func TestDerivePSUConstants(t *testing.T) {
	c := Default()
	// Equation 1: IPMI (DC) 258 W vs wattmeter (AC) 273.4 W.
	eff := paperdata.Eq1IPMIWatts / paperdata.Eq1WattmeterWatts
	if math.Abs(eff-c.PSUEfficiency) > 1e-4 {
		t.Fatalf("PSU efficiency derived %.5f, frozen %.5f", eff, c.PSUEfficiency)
	}
	share := paperdata.Eq1PSU1Watts / paperdata.Eq1WattmeterWatts
	if math.Abs(share-c.PSU1Share) > 1e-3 {
		t.Fatalf("PSU1 share derived %.5f, frozen %.5f", share, c.PSU1Share)
	}
}

func TestDeriveJobWork(t *testing.T) {
	c := Default()
	// Fixed work = standard GFLOPS × Table 2's standard runtime.
	want := c.GFLOPS(StandardConfig()) * float64(paperdata.Table2Standard.RuntimeSeconds)
	if math.Abs(want-c.JobGFLOP) > 1e-9 {
		t.Fatalf("job work derived %.3f, frozen %.3f", want, c.JobGFLOP)
	}
}

func TestSystemPowerIdentity(t *testing.T) {
	// The closed form used throughout the calibration derivation:
	// W_sys = base + (1 + fanCoef·Rth)·P_cpu at thermal steady state.
	c := Default()
	for _, p := range []float64{60, 97.4, 120.4} {
		direct := c.SystemPowerW(p, c.SteadyTempC(p))
		closed := c.BaseSystemW + (1+c.FanCoefWPerC*c.ThermalRthCPerW)*p
		if math.Abs(direct-closed) > 1e-9 {
			t.Fatalf("identity broken at %v W: %v vs %v", p, direct, closed)
		}
	}
}
