package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2023, 5, 10, 3, 0, 0, 0, time.UTC)

func rampTrace(n int, stepSeconds float64) *Trace {
	tr := &Trace{Name: "ramp"}
	for i := 0; i < n; i++ {
		tr.Samples = append(tr.Samples, Sample{
			Time:     epoch.Add(time.Duration(float64(i) * stepSeconds * float64(time.Second))),
			SystemW:  200 + float64(i%10),
			CPUW:     100 + float64(i%10)/2,
			CPUTempC: 60,
			FreqKHz:  2_500_000,
		})
	}
	return tr
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	tr := &Trace{}
	if err := tr.Append(Sample{Time: epoch.Add(time.Second)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(Sample{Time: epoch}); err == nil {
		t.Fatal("out-of-order sample accepted")
	}
	if err := tr.Append(Sample{Time: epoch.Add(time.Second)}); err != nil {
		t.Fatalf("equal-time sample rejected: %v", err)
	}
}

func TestAggregateConstantPower(t *testing.T) {
	tr := &Trace{Name: "const"}
	for i := 0; i <= 100; i++ {
		tr.Append(Sample{Time: epoch.Add(time.Duration(i) * 3 * time.Second), SystemW: 216.6, CPUW: 120.4, CPUTempC: 62.8})
	}
	agg, err := tr.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg.AvgSystemW-216.6) > 1e-9 || math.Abs(agg.AvgCPUW-120.4) > 1e-9 {
		t.Fatalf("averages = %+v", agg)
	}
	wantKJ := 216.6 * 300 / 1000
	if math.Abs(agg.SystemKJ-wantKJ) > 1e-9 {
		t.Fatalf("SystemKJ = %v, want %v", agg.SystemKJ, wantKJ)
	}
	if agg.Runtime != 300*time.Second {
		t.Fatalf("Runtime = %v", agg.Runtime)
	}
}

func TestAggregateNeedsTwoSamples(t *testing.T) {
	tr := &Trace{}
	if _, err := tr.Aggregate(); err == nil {
		t.Fatal("empty trace aggregated")
	}
	tr.Append(Sample{Time: epoch})
	if _, err := tr.Aggregate(); err == nil {
		t.Fatal("single-sample trace aggregated")
	}
}

func TestTrapezoidalIntegration(t *testing.T) {
	// Linear ramp 0→100 W over 100 s = 5 kJ exactly under trapezoid.
	tr := &Trace{}
	for i := 0; i <= 100; i++ {
		tr.Append(Sample{Time: epoch.Add(time.Duration(i) * time.Second), SystemW: float64(i), CPUW: float64(i) / 2})
	}
	agg, err := tr.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg.SystemKJ-5.0) > 1e-9 {
		t.Fatalf("SystemKJ = %v, want 5.0", agg.SystemKJ)
	}
	if math.Abs(agg.CPUKJ-2.5) > 1e-9 {
		t.Fatalf("CPUKJ = %v, want 2.5", agg.CPUKJ)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := rampTrace(50, 3)
	back, err := ReadCSV(bytes.NewReader(tr.CSV()), "ramp", epoch)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip lost samples: %d vs %d", back.Len(), tr.Len())
	}
	a1, _ := tr.Aggregate()
	a2, _ := back.Aggregate()
	if math.Abs(a1.SystemKJ-a2.SystemKJ) > 0.01 {
		t.Fatalf("energy changed over round trip: %v vs %v", a1.SystemKJ, a2.SystemKJ)
	}
	if back.Samples[3].FreqKHz != 2_500_000 {
		t.Fatal("frequency column lost")
	}
}

func TestCSVHeaderPresent(t *testing.T) {
	if got := string(rampTrace(2, 1).CSV()); !strings.HasPrefix(got, "seconds,system_w,cpu_w,cpu_temp_c,freq_khz") {
		t.Fatalf("CSV header missing: %q", got[:40])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad number": "seconds,system_w,cpu_w,cpu_temp_c,freq_khz\nxx,1,2,3,4\n",
		"bad freq":   "seconds,system_w,cpu_w,cpu_temp_c,freq_khz\n0,1,2,3,fast\n",
		"bad system": "seconds,system_w,cpu_w,cpu_temp_c,freq_khz\n0,watts,2,3,4\n",
	}
	for name, csvText := range cases {
		if _, err := ReadCSV(strings.NewReader(csvText), "x", epoch); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPowerSpread(t *testing.T) {
	tr := &Trace{}
	if tr.PowerSpread() != 0 {
		t.Fatal("empty trace has nonzero spread")
	}
	for i, w := range []float64{200, 250, 190, 240} {
		tr.Append(Sample{Time: epoch.Add(time.Duration(i) * time.Second), SystemW: w})
	}
	if got := tr.PowerSpread(); got != 60 {
		t.Fatalf("PowerSpread = %v, want 60", got)
	}
}

func TestDurationEmptyAndSingle(t *testing.T) {
	tr := &Trace{}
	if tr.Duration() != 0 {
		t.Fatal("empty trace duration nonzero")
	}
	tr.Append(Sample{Time: epoch})
	if tr.Duration() != 0 {
		t.Fatal("single-sample duration nonzero")
	}
}

// Property: average power × runtime brackets the trapezoidal energy
// for any positive sample series with uniform spacing.
func TestAggregateEnergyBounds(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		tr := &Trace{}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			w := 100 + float64(v)
			lo, hi = math.Min(lo, w), math.Max(hi, w)
			tr.Append(Sample{Time: epoch.Add(time.Duration(i) * time.Second), SystemW: w})
		}
		agg, err := tr.Aggregate()
		if err != nil {
			return false
		}
		secs := agg.Runtime.Seconds()
		return agg.SystemKJ >= lo*secs/1000-1e-9 && agg.SystemKJ <= hi*secs/1000+1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDownsample(t *testing.T) {
	tr := rampTrace(30, 1)
	ds := tr.Downsample(10)
	if ds.Len() != 3 {
		t.Fatalf("downsampled to %d samples, want 3", ds.Len())
	}
	if ds.Samples[1].Time != tr.Samples[10].Time {
		t.Fatal("downsample did not keep every 10th sample")
	}
	// n ≤ 1 copies.
	cp := tr.Downsample(0)
	if cp.Len() != tr.Len() {
		t.Fatal("n=0 should copy")
	}
	cp.Samples[0].SystemW = -1
	if tr.Samples[0].SystemW == -1 {
		t.Fatal("downsample aliases the original")
	}
}

func TestPercentile(t *testing.T) {
	tr := &Trace{}
	if tr.Percentile(50) != 0 {
		t.Fatal("empty trace percentile nonzero")
	}
	for i, w := range []float64{100, 200, 300, 400} {
		tr.Append(Sample{Time: epoch.Add(time.Duration(i) * time.Second), SystemW: w})
	}
	if got := tr.Percentile(0); got != 100 {
		t.Fatalf("p0 = %v", got)
	}
	if got := tr.Percentile(100); got != 400 {
		t.Fatalf("p100 = %v", got)
	}
	if got := tr.Percentile(50); got != 200 {
		t.Fatalf("p50 = %v", got)
	}
	if got := tr.Percentile(75); got != 300 {
		t.Fatalf("p75 = %v", got)
	}
}
