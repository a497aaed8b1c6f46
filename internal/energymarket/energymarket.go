// Package energymarket is the signal behind the paper's §6.2.4
// future-work extension: scheduling jobs when energy is cheap or
// renewable — the practice the paper attributes to Vestas and Lancium.
// It provides a deterministic synthetic electricity market (diurnal
// demand, solar and wind generation, price coupling) whose Price and
// CarbonIntensity the scheduler's deferral policy reads; the policy
// itself lives in internal/slurm.
//
// The market is synthetic because spot-price feeds are a proprietary
// data gate; the generator reproduces the properties the policy
// depends on: day/night price cycles, a midday solar valley and
// multi-hour wind regimes.
package energymarket

import (
	"math"
	"time"

	"ecosched/internal/simclock"
)

// Market is a deterministic synthetic electricity market.
type Market struct {
	seed uint64
	// BasePrice is the mean spot price in EUR/kWh.
	BasePrice float64
	// DemandSwing scales the diurnal demand effect on price.
	DemandSwing float64
	// RenewableDiscount is how strongly renewable share depresses the
	// price (EUR/kWh at 100 % share).
	RenewableDiscount float64
	// GridCarbon is the carbon intensity of non-renewable generation
	// in gCO2/kWh; renewables count as zero.
	GridCarbon float64
}

// New returns a market with Northern-European-ish defaults. The seed
// selects the wind-regime realisation.
func New(seed uint64) *Market {
	return &Market{
		seed:              seed,
		BasePrice:         0.25,
		DemandSwing:       0.10,
		RenewableDiscount: 0.18,
		GridCarbon:        450,
	}
}

// SolarShare returns the solar fraction of generation at t: a clear
// diurnal bell, zero at night.
func (m *Market) SolarShare(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60
	if h < 6 || h > 20 {
		return 0
	}
	x := (h - 13) / 7 // peak at 13:00
	bell := math.Cos(x * math.Pi / 2)
	return 0.35 * bell * bell
}

// WindShare returns the wind fraction of generation at t: multi-hour
// regimes derived deterministically from the seed and the hour index,
// smoothed between regime points.
func (m *Market) WindShare(t time.Time) float64 {
	// One regime value per 6-hour block, interpolated.
	block := t.Unix() / (6 * 3600)
	frac := float64(t.Unix()%(6*3600)) / (6 * 3600)
	a := m.regime(block)
	b := m.regime(block + 1)
	return a + (b-a)*frac
}

func (m *Market) regime(block int64) float64 {
	rng := simclock.NewRNG(m.seed ^ uint64(block)*0x9e3779b97f4a7c15)
	return 0.05 + 0.45*rng.Float64()
}

// RenewableShare is the total renewable fraction at t, capped at 90 %.
func (m *Market) RenewableShare(t time.Time) float64 {
	s := m.SolarShare(t) + m.WindShare(t)
	if s > 0.9 {
		s = 0.9
	}
	return s
}

// Price returns the spot price in EUR/kWh at t.
func (m *Market) Price(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60
	// Demand peaks around 08:00 and 19:00.
	demand := 0.6*peak(h, 8, 3) + 0.8*peak(h, 19, 3.5)
	p := m.BasePrice + m.DemandSwing*demand - m.RenewableDiscount*m.RenewableShare(t)
	if p < 0.02 {
		p = 0.02
	}
	return p
}

func peak(h, at, width float64) float64 {
	d := h - at
	return math.Exp(-d * d / (2 * width * width))
}

// CarbonIntensity returns gCO2/kWh at t.
func (m *Market) CarbonIntensity(t time.Time) float64 {
	return m.GridCarbon * (1 - m.RenewableShare(t))
}
