package workload

import (
	"math"
	"testing"
	"time"

	"ecosched/internal/simclock"
)

// TestDistSanity draws a large sample from every distribution family
// and checks sample mean and variance against the analytic moments.
func TestDistSanity(t *testing.T) {
	const n = 200000
	cases := []struct {
		name string
		d    Dist
	}{
		{"constant", Dist{Kind: DistConstant, Value: 42}},
		{"uniform", Dist{Kind: DistUniform, Min: 10, Max: 30}},
		{"exponential", Dist{Kind: DistExponential, Mean: 7.5}},
		{"lognormal", Dist{Kind: DistLogNormal, Mu: 1.2, Sigma: 0.5}},
		{"gamma", Dist{Kind: DistGamma, Shape: 2.5, Scale: 4}},
		{"gamma-sub1", Dist{Kind: DistGamma, Shape: 0.6, Scale: 3}},
		{"weibull-bursty", Dist{Kind: DistWeibull, Shape: 0.8, Scale: 5}},
		{"weibull-regular", Dist{Kind: DistWeibull, Shape: 2, Scale: 5}},
	}
	for i, c := range cases {
		c := c
		seed := uint64(1000 + i)
		t.Run(c.name, func(t *testing.T) {
			if err := c.d.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			r := simclock.NewRNG(seed)
			var sum, sumSq float64
			for j := 0; j < n; j++ {
				v := c.d.Sample(r)
				if v < 0 {
					t.Fatalf("sample %d negative: %g", j, v)
				}
				sum += v
				sumSq += v * v
			}
			mean := sum / n
			variance := sumSq/n - mean*mean
			wantMean, wantVar := c.d.Expectation(), c.d.Variance()
			// 3% relative tolerance on the mean (loose enough for the
			// heavy-tailed families at this sample size).
			if tol := 0.03 * math.Max(wantMean, 1e-9); math.Abs(mean-wantMean) > tol {
				t.Errorf("mean = %g, want %g ± %g", mean, wantMean, tol)
			}
			if wantVar == 0 {
				if variance > 1e-9 {
					t.Errorf("variance = %g, want 0", variance)
				}
				return
			}
			// 10% relative tolerance on the variance (second moments
			// converge slower, especially lognormal).
			if tol := 0.10 * wantVar; math.Abs(variance-wantVar) > tol {
				t.Errorf("variance = %g, want %g ± %g", variance, wantVar, tol)
			}
		})
	}
}

// TestArrivalProcessMeans checks that the generator's arrival
// processes hit the requested mean rate: for each process, the mean
// interarrival gap over many submissions must match 3600/rate.
func TestArrivalProcessMeans(t *testing.T) {
	cases := []struct {
		name    string
		arrival ArrivalSpec
	}{
		{"poisson", ArrivalSpec{Process: ArrivalPoisson, RatePerHour: 360}},
		{"gamma", ArrivalSpec{Process: ArrivalGamma, RatePerHour: 360, Shape: 2.5}},
		{"weibull", ArrivalSpec{Process: ArrivalWeibull, RatePerHour: 360, Shape: 0.9}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{
				Version: SpecVersion,
				Name:    "arrival-" + c.name,
				Seed:    77,
				Horizon: Duration(2000 * time.Hour),
				Cluster: ClusterSpec{Partitions: []PartitionSpec{{Name: "batch", Nodes: 1}}},
				Clients: []Client{{
					Name:    "c",
					Arrival: c.arrival,
					Jobs:    JobSpec{Work: Dist{Kind: DistConstant, Value: 100}},
				}},
				MaxSubmissions: 100000,
			}
			gen, err := NewGenerator(spec, simclock.Epoch)
			if err != nil {
				t.Fatalf("NewGenerator: %v", err)
			}
			var prev = simclock.Epoch
			var sum float64
			n := 0
			for {
				var s Submission
				ok, err := gen.NextInto(&s)
				if err != nil {
					t.Fatalf("NextInto: %v", err)
				}
				if !ok {
					break
				}
				sum += s.At.Time().Sub(prev).Seconds()
				prev = s.At.Time()
				n++
			}
			if n != spec.MaxSubmissions {
				t.Fatalf("generated %d submissions, want %d", n, spec.MaxSubmissions)
			}
			mean := sum / float64(n)
			want := 3600 / c.arrival.RatePerHour
			if tol := 0.03 * want; math.Abs(mean-want) > tol {
				t.Errorf("mean interarrival = %gs, want %gs ± %gs", mean, want, tol)
			}
		})
	}
}

// TestDiurnalWindows verifies rate modulation: a 4× window must see
// roughly 4× the arrivals per hour of an unweighted hour.
func TestDiurnalWindows(t *testing.T) {
	spec := Spec{
		Version: SpecVersion,
		Name:    "diurnal",
		Seed:    5,
		Horizon: Duration(200 * 24 * time.Hour),
		Cluster: ClusterSpec{Partitions: []PartitionSpec{{Name: "batch", Nodes: 1}}},
		Clients: []Client{{
			Name:    "c",
			Arrival: ArrivalSpec{Process: ArrivalPoisson, RatePerHour: 60},
			Windows: []Window{{FromHour: 9, ToHour: 17, Weight: 4}},
			Jobs:    JobSpec{Work: Dist{Kind: DistConstant, Value: 1}},
		}},
	}
	gen, err := NewGenerator(spec, simclock.Epoch)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	var peak, offPeak int
	for {
		var s Submission
		ok, err := gen.NextInto(&s)
		if err != nil {
			t.Fatalf("NextInto: %v", err)
		}
		if !ok {
			break
		}
		h := s.At.Time().Hour()
		if h >= 9 && h < 17 {
			peak++
		} else {
			offPeak++
		}
	}
	// Peak covers 8 of 24 hours at 4× weight: expected ratio of
	// per-hour rates is 4. Allow 10% (window-edge gaps bias it down a
	// touch: the gap is sampled at the window entry hour).
	perHourPeak := float64(peak) / 8
	perHourOff := float64(offPeak) / 16
	ratio := perHourPeak / perHourOff
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("peak/off-peak per-hour ratio = %.2f, want ≈ 4", ratio)
	}
}

// TestDistValidate exercises the error paths.
func TestDistValidate(t *testing.T) {
	bad := []Dist{
		{Kind: "zipf"},
		{Kind: DistUniform, Min: 5, Max: 1},
		{Kind: DistExponential, Mean: 0},
		{Kind: DistLogNormal, Sigma: -1},
		{Kind: DistGamma, Shape: 0, Scale: 1},
		{Kind: DistWeibull, Shape: 1, Scale: 0},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate() = nil, want error", i, d)
		}
	}
	if err := (&Dist{}).Validate(); err != nil {
		t.Errorf("zero Dist: Validate() = %v, want nil", err)
	}
}
