package energymarket

import (
	"testing"
	"testing/quick"
	"time"
)

var day = time.Date(2023, 5, 10, 0, 0, 0, 0, time.UTC)

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
	// Smoothness: adjacent minutes differ by a tiny amount.
	d := a.WindShare(at.Add(time.Minute)) - a.WindShare(at)
	if d > 0.01 || d < -0.01 {
		t.Fatalf("wind jumps %v per minute", d)
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
