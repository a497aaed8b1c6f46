package energymarket

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"ecosched/internal/simclock"
)

var day = time.Date(2023, 5, 10, 0, 0, 0, 0, time.UTC)

// unixZero is 1970-01-01T00:00Z, where Unix time changes sign.
var unixZero = time.Unix(0, 0).UTC()

func TestSolarShapeIsDiurnal(t *testing.T) {
	m := New(1)
	if m.SolarShare(day.Add(2*time.Hour)) != 0 {
		t.Fatal("solar at 02:00")
	}
	noon := m.SolarShare(day.Add(13 * time.Hour))
	morning := m.SolarShare(day.Add(8 * time.Hour))
	if noon <= morning || noon <= 0.2 {
		t.Fatalf("solar noon %v, morning %v", noon, morning)
	}
}

func TestWindIsSeededAndSmooth(t *testing.T) {
	a, b := New(1), New(1)
	other := New(2)
	at := day.Add(7 * time.Hour)
	if a.WindShare(at) != b.WindShare(at) {
		t.Fatal("same seed, different wind")
	}
	if a.WindShare(at) == other.WindShare(at) {
		t.Fatal("different seeds, identical wind")
	}
	// Smoothness: adjacent minutes differ by a tiny amount, here and on
	// both sides of 1970-01-01T00:00Z, across every block edge near it.
	d := a.WindShare(at.Add(time.Minute)) - a.WindShare(at)
	if d > 0.01 || d < -0.01 {
		t.Fatalf("wind jumps %v per minute", d)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		m := New(seed)
		for off := -25 * time.Hour; off < 25*time.Hour; off += time.Minute {
			at := unixZero.Add(off)
			if d := m.WindShare(at.Add(time.Minute)) - m.WindShare(at); d > 0.01 || d < -0.01 {
				t.Fatalf("seed %d: wind jumps %v between %v and the next minute", seed, d, at)
			}
		}
	}
}

func TestSharesAndPricesBounded(t *testing.T) {
	m := New(7)
	if err := quick.Check(func(minutes uint16) bool {
		at := day.Add(time.Duration(minutes) * time.Minute)
		s := m.RenewableShare(at)
		p := m.Price(at)
		ci := m.CarbonIntensity(at)
		return s >= 0 && s <= 0.9 && p >= 0.02 && p < 1 && ci >= 0 && ci <= m.GridCarbon
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Across 1970-01-01T00:00Z, on 50 seeds: the three days before it
	// and the day after. The wind share stays within its regimes' range.
	for seed := uint64(1); seed <= 50; seed++ {
		m := New(seed)
		for off := -72 * time.Hour; off <= 24*time.Hour; off += 7 * time.Minute {
			at := unixZero.Add(off)
			w, s, p, ci := m.WindShare(at), m.RenewableShare(at), m.Price(at), m.CarbonIntensity(at)
			if w < 0.05 || w > 0.5 || s < 0 || s > 0.9 || p < 0.02 || p >= 1 || ci < 0 || ci > m.GridCarbon {
				t.Fatalf("seed %d at %v: wind %v, renewable %v, price %v, carbon %v out of bounds", seed, at, w, s, p, ci)
			}
		}
	}
}

func TestPriceRespondsToRenewables(t *testing.T) {
	m := New(3)
	// Find a high- and a low-renewable instant across two days.
	var hiT, loT time.Time
	hi, lo := -1.0, 2.0
	for off := time.Duration(0); off < 48*time.Hour; off += 30 * time.Minute {
		at := day.Add(off)
		s := m.RenewableShare(at)
		if s > hi {
			hi, hiT = s, at
		}
		if s < lo {
			lo, loT = s, at
		}
	}
	if hi-lo < 0.3 {
		t.Fatalf("renewable range too narrow: %v..%v", lo, hi)
	}
	if m.CarbonIntensity(hiT) >= m.CarbonIntensity(loT) {
		t.Fatal("carbon intensity not lower when renewables are high")
	}
}

// TestMarketMemoMatchesFresh is the market memo's differential test: one
// Market read along a seeded, non-monotone run of instants — steps of
// seconds to days, back and forth across minute and 6-hour block edges
// and across 1970, some in a zone off UTC by a non-whole hour — must
// read, bit for bit, what a fresh New(seed) with the same coefficients
// reads at each instant. Each coefficient is written between reads; the
// next read must use the new value.
func TestMarketMemoMatchesFresh(t *testing.T) {
	zone := time.FixedZone("UTC+05:30", 5*3600+1800)
	for seed := uint64(1); seed <= 4; seed++ {
		m := New(seed)
		rng := simclock.NewRNG(seed + 900)
		at := unixZero.Add(-2 * time.Hour)
		for i := 0; i < 3000; i++ {
			steps := [...]time.Duration{time.Second, 59 * time.Second, time.Minute, 6 * time.Hour, 25 * time.Hour}
			step := time.Duration(1+rng.Intn(3)) * steps[rng.Intn(len(steps))]
			if rng.Intn(2) == 0 {
				step = -step
			}
			at = at.Add(step)
			if at.Before(unixZero.Add(-96*time.Hour)) || at.After(day.Add(96*time.Hour)) {
				at = day
			}
			if rng.Intn(10) == 0 {
				at = unixZero.Add(-time.Duration(rng.Intn(6*3600)) * time.Second)
			}
			read := at
			if rng.Intn(4) == 0 {
				read = at.In(zone)
			}
			m.Price(read)
			switch rng.Intn(8) {
			case 0:
				m.BasePrice += 0.01
			case 1:
				m.DemandSwing *= 1.5
			case 2:
				m.RenewableDiscount += 0.02
			case 3:
				m.GridCarbon -= 5
			}
			fresh := New(seed)
			fresh.BasePrice, fresh.DemandSwing, fresh.RenewableDiscount, fresh.GridCarbon =
				m.BasePrice, m.DemandSwing, m.RenewableDiscount, m.GridCarbon
			got := [...]float64{m.Price(read), m.RenewableShare(read), m.CarbonIntensity(read), m.SolarShare(read), m.WindShare(read)}
			want := [...]float64{fresh.Price(read), fresh.RenewableShare(read), fresh.CarbonIntensity(read), fresh.SolarShare(read), fresh.WindShare(read)}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("seed %d read %d at %v: series %d reads %v, a fresh market %v", seed, i, read, k, got[k], want[k])
				}
			}
		}
	}
}
