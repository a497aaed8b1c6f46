package perfmodel

import "math"

// Roofline is a parametric throughput/power model for where no
// measured surface exists (a second application, core.StreamRunner).
// It captures the qualitative behaviour the paper
// observes for HPCG: compute throughput grows with cores × frequency
// until the memory system saturates, after which added frequency only
// burns power ("driving at higher speeds with reduced fuel
// efficiency").
//
//	G(n, f, ht) = softmin( n·g·f·h_c(n,ht),  B·n/(n+K)·h_m(ht) )
//
// where softmin(a, b) = (a·b)/(a+b)·2 is a smooth roofline knee, and
// hyper-threading gives a small compute boost at low core counts and a
// small memory penalty at high counts — observations (2) and (3) in
// §5.2.1.
type Roofline struct {
	GFLOPSPerCoreGHz float64 // per-core compute rate per GHz
	MemRoofGFLOPS    float64 // bandwidth-bound throughput ceiling
	MemHalfCores     float64 // cores at which bandwidth reaches half the roof
	HTComputeBoost   float64 // compute-side multiplier with 2 threads (e.g. 1.15)
	HTMemPenalty     float64 // memory-side multiplier with 2 threads (e.g. 0.98)
	// Power side: same shape as Calibration.
	UncoreW     float64
	CoreIdleW   float64
	CoreDynWGHz float64 // per-core dynamic power per GHz at reference voltage
	VoltExp     float64 // effective exponent: P_core ∝ f^VoltExp
	RefGHz      float64 // frequency at which CoreDynWGHz is quoted
	BaseSystemW float64
	SysFactor   float64 // W_sys = BaseSystemW + SysFactor·P_cpu
	TotalCores  int
}

// DefaultRoofline returns constants loosely matched to the calibrated
// EPYC 7502P surface (TestFitRooflineQuality is their provenance).
func DefaultRoofline() *Roofline {
	return &Roofline{
		GFLOPSPerCoreGHz: 0.62,
		MemRoofGFLOPS:    10.5,
		MemHalfCores:     3.0,
		HTComputeBoost:   1.12,
		HTMemPenalty:     0.985,
		UncoreW:          55,
		CoreIdleW:        0.15,
		CoreDynWGHz:      0.8175, // 2.04375 W at 2.5 GHz reference
		VoltExp:          2.2,
		RefGHz:           2.5,
		BaseSystemW:      77.87,
		SysFactor:        1.1522,
		TotalCores:       32,
	}
}

// GFLOPS evaluates the roofline throughput.
func (r *Roofline) GFLOPS(cfg Config) float64 {
	n := float64(cfg.Cores)
	f := cfg.GHz()
	compute := n * r.GFLOPSPerCoreGHz * f
	mem := r.MemRoofGFLOPS * n / (n + r.MemHalfCores)
	if cfg.HyperThread() {
		// The boost fades as cores saturate memory; the penalty applies
		// to the shared-cache memory path.
		frac := 1 - n/float64(r.TotalCores)
		compute *= 1 + (r.HTComputeBoost-1)*frac
		mem *= r.HTMemPenalty
	}
	return softmin(compute, mem)
}

// softmin is a smooth minimum: exact when the terms are far apart,
// rounding the knee when they are comparable (harmonic mean form).
func softmin(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return a * b / math.Pow(math.Pow(a, 4)+math.Pow(b, 4), 0.25)
}

// CPUPowerW returns package power at full load.
func (r *Roofline) CPUPowerW(cfg Config) float64 {
	perCore := r.CoreDynWGHz * r.RefGHz * math.Pow(cfg.GHz()/r.RefGHz, r.VoltExp)
	if cfg.HyperThread() {
		perCore *= 1.03
	}
	idle := float64(r.TotalCores-cfg.Cores) * r.CoreIdleW
	return r.UncoreW + float64(cfg.Cores)*perCore + idle
}

// SystemPowerW returns steady DC-side system power at full load.
func (r *Roofline) SystemPowerW(cfg Config) float64 {
	return r.BaseSystemW + r.SysFactor*r.CPUPowerW(cfg)
}

// Efficiency returns GFLOPS per system watt under the roofline model.
func (r *Roofline) Efficiency(cfg Config) float64 {
	return r.GFLOPS(cfg) / r.SystemPowerW(cfg)
}
