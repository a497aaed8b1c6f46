package optimizer

import (
	"errors"
	"math"
	"testing"
	"time"

	"ecosched/internal/leakcheck"
	"ecosched/internal/paperdata"
	"ecosched/internal/perfmodel"
	"ecosched/internal/repository"
)

// sweepBenchmarks synthesises the benchmark history the paper's sweep
// would have stored: one row per Tables 4–6 configuration, with power
// from the calibrated model and GFLOPS = efficiency × power.
func sweepBenchmarks() []repository.Benchmark {
	calib := perfmodel.Default()
	var rows []repository.Benchmark
	for i, r := range paperdata.Sweep {
		tpc := 1
		if r.HyperThread {
			tpc = 2
		}
		cfg := perfmodel.Config{Cores: r.Cores, FreqKHz: int(r.GHz * 1e6), ThreadsPerCore: tpc}
		w := calib.SteadySystemPowerW(cfg)
		rows = append(rows, repository.Benchmark{
			ID: int64(i + 1), SystemID: 1, AppHash: "hpcg",
			Cores: cfg.Cores, FreqKHz: cfg.FreqKHz, ThreadsPerCore: tpc,
			GFLOPS:         r.GFLOPSPerWatt * w,
			AvgSystemW:     w,
			AvgCPUW:        calib.CPUPowerW(cfg, 1),
			RuntimeSeconds: calib.RuntimeSeconds(cfg),
			Created:        time.Unix(1683687600, 0),
		})
	}
	return rows
}

func paperSpace() Space {
	return Space{MaxCores: 32, FrequenciesKHz: paperdata.FrequenciesKHz, MaxThreads: 2}
}

// trueEff returns the measured efficiency of a configuration (0 when
// unmeasured).
func trueEff(cfg perfmodel.Config) float64 {
	ht := cfg.ThreadsPerCore >= 2
	r, ok := paperdata.Lookup(cfg.Cores, cfg.GHz(), ht)
	if !ok {
		return 0
	}
	return r.GFLOPSPerWatt
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		o, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if o.Name() != name {
			t.Fatalf("New(%s).Name() = %s", name, o.Name())
		}
	}
	// The paper CLI's alias.
	o, err := New(NameRandomTree)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != NameRandomForest {
		t.Fatalf("random-tree alias resolves to %s", o.Name())
	}
	if _, err := New("perceptron"); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}

func TestUntrainedErrors(t *testing.T) {
	for _, name := range Names() {
		o, _ := New(name)
		if _, err := o.PredictEfficiency(perfmodel.BestConfig()); !errors.Is(err, ErrUntrained) {
			t.Errorf("%s: predict untrained err = %v", name, err)
		}
		if _, err := o.BestConfig(paperSpace()); !errors.Is(err, ErrUntrained) {
			t.Errorf("%s: best untrained err = %v", name, err)
		}
	}
}

func TestBruteForceFindsPaperBest(t *testing.T) {
	bf := &BruteForce{}
	if err := bf.Train(sweepBenchmarks()); err != nil {
		t.Fatal(err)
	}
	best, err := bf.BestConfig(paperSpace())
	if err != nil {
		t.Fatal(err)
	}
	want := perfmodel.BestConfig()
	if best != want {
		t.Fatalf("brute force best = %v, want %v (Table 1 row 1)", best, want)
	}
}

func TestBruteForcePredictExactAndMissing(t *testing.T) {
	bf := &BruteForce{}
	bf.Train(sweepBenchmarks())
	eff, err := bf.PredictEfficiency(perfmodel.BestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eff-0.048767) > 1e-9 {
		t.Fatalf("brute force eff = %v, want the measured 0.048767", eff)
	}
	if _, err := bf.PredictEfficiency(perfmodel.Config{Cores: 11, FreqKHz: 2_200_000, ThreadsPerCore: 1}); err == nil {
		t.Fatal("brute force predicted an unmeasured configuration")
	}
}

func TestBruteForceLatestMeasurementWins(t *testing.T) {
	rows := sweepBenchmarks()[:1]
	updated := rows[0]
	updated.GFLOPS *= 2
	bf := &BruteForce{}
	if err := bf.Train(append(rows, updated)); err != nil {
		t.Fatal(err)
	}
	eff, _ := bf.PredictEfficiency(perfmodel.Config{
		Cores: rows[0].Cores, FreqKHz: rows[0].FreqKHz, ThreadsPerCore: rows[0].ThreadsPerCore,
	})
	if math.Abs(eff-updated.GFLOPSPerWatt()) > 1e-12 {
		t.Fatalf("remeasured row not preferred: %v", eff)
	}
}

func TestBruteForceRespectsSpaceBounds(t *testing.T) {
	bf := &BruteForce{}
	bf.Train(sweepBenchmarks())
	small := Space{MaxCores: 16, FrequenciesKHz: paperdata.FrequenciesKHz, MaxThreads: 1}
	best, err := bf.BestConfig(small)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cores > 16 || best.ThreadsPerCore > 1 {
		t.Fatalf("best %v outside space", best)
	}
}

func TestBruteForceEmptyTraining(t *testing.T) {
	if err := (&BruteForce{}).Train(nil); err == nil {
		t.Fatal("empty training accepted")
	}
	zeroPower := []repository.Benchmark{{SystemID: 1, Cores: 1, FreqKHz: 1, ThreadsPerCore: 1}}
	if err := (&BruteForce{}).Train(zeroPower); err == nil {
		t.Fatal("training with only unusable rows accepted")
	}
}

func TestLinearPicksACorner(t *testing.T) {
	l := &Linear{}
	if err := l.Train(sweepBenchmarks()); err != nil {
		t.Fatal(err)
	}
	best, err := l.BestConfig(paperSpace())
	if err != nil {
		t.Fatal(err)
	}
	// A linear response surface is maximised at an extreme point of
	// every coordinate. Efficiency rises with cores, so cores must be
	// the max; frequency must be one of the ladder's endpoints.
	if best.Cores != 32 {
		t.Fatalf("linear best cores = %d, want 32", best.Cores)
	}
	if best.FreqKHz != 1_500_000 && best.FreqKHz != 2_500_000 {
		t.Fatalf("linear best frequency %d is not a ladder endpoint", best.FreqKHz)
	}
}

func TestLinearNeedsEnoughRows(t *testing.T) {
	if err := (&Linear{}).Train(sweepBenchmarks()[:2]); err == nil {
		t.Fatal("linear trained on 2 rows")
	}
}

func TestRandomForestLowRegret(t *testing.T) {
	defer leakcheck.Check(t)()
	rf := &RandomForest{}
	if err := rf.Train(sweepBenchmarks()); err != nil {
		t.Fatal(err)
	}
	best, err := rf.BestConfig(paperSpace())
	if err != nil {
		t.Fatal(err)
	}
	// The chosen configuration's *true* efficiency must be within 3 %
	// of the sweep optimum (regret bound). The forest interpolates at
	// unmeasured core counts, so compare via nearest measured point.
	got := trueEff(best)
	if got == 0 {
		// Snap to the nearest measured core count for the comparison.
		got = nearestMeasuredEff(best)
	}
	want := paperdata.BestRow().GFLOPSPerWatt
	if got < 0.97*want {
		t.Fatalf("forest chose %v with true eff %v; optimum is %v", best, got, want)
	}
}

func nearestMeasuredEff(cfg perfmodel.Config) float64 {
	bestDist := 1 << 30
	var eff float64
	for _, n := range paperdata.CoreCounts {
		d := n - cfg.Cores
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			if r, ok := paperdata.Lookup(n, cfg.GHz(), cfg.ThreadsPerCore >= 2); ok {
				bestDist = d
				eff = r.GFLOPSPerWatt
			}
		}
	}
	return eff
}

func TestGeneticLowRegret(t *testing.T) {
	g := &Genetic{}
	if err := g.Train(sweepBenchmarks()); err != nil {
		t.Fatal(err)
	}
	best, err := g.BestConfig(paperSpace())
	if err != nil {
		t.Fatal(err)
	}
	got := trueEff(best)
	if got == 0 {
		got = nearestMeasuredEff(best)
	}
	want := paperdata.BestRow().GFLOPSPerWatt
	if got < 0.95*want {
		t.Fatalf("genetic chose %v with true eff %v; optimum is %v", best, got, want)
	}
}

func TestGeneticDeterministic(t *testing.T) {
	g1, g2 := &Genetic{}, &Genetic{}
	g1.Train(sweepBenchmarks())
	g2.Train(sweepBenchmarks())
	b1, err := g1.BestConfig(paperSpace())
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := g2.BestConfig(paperSpace())
	if b1 != b2 {
		t.Fatalf("genetic non-deterministic: %v vs %v", b1, b2)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rows := sweepBenchmarks()
	probe := []perfmodel.Config{
		{Cores: 32, FreqKHz: 2_200_000, ThreadsPerCore: 1},
		{Cores: 8, FreqKHz: 2_500_000, ThreadsPerCore: 2},
		{Cores: 20, FreqKHz: 1_500_000, ThreadsPerCore: 1},
	}
	for _, name := range Names() {
		o, _ := New(name)
		if err := o.Train(rows); err != nil {
			t.Fatalf("%s train: %v", name, err)
		}
		data, err := Encode(o)
		if err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%s decode: %v", name, err)
		}
		if back.Name() != o.Name() {
			t.Fatalf("%s decoded as %s", name, back.Name())
		}
		for _, cfg := range probe {
			want, err1 := o.PredictEfficiency(cfg)
			got, err2 := back.PredictEfficiency(cfg)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: error mismatch at %v: %v vs %v", name, cfg, err1, err2)
			}
			if err1 == nil && math.Abs(want-got) > 1e-12 {
				t.Fatalf("%s: decoded model predicts %v, original %v", name, got, want)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("{")); err == nil {
		t.Fatal("bad JSON decoded")
	}
	if _, err := Decode([]byte(`{"type":"perceptron","model":{}}`)); err == nil {
		t.Fatal("unknown type decoded")
	}
	if _, err := Decode([]byte(`{"type":"linear-regression","model":[1,2]}`)); err == nil {
		t.Fatal("mismatched payload decoded")
	}
}

func TestSpaceConfigsEnumeration(t *testing.T) {
	s := Space{MaxCores: 4, FrequenciesKHz: []int{1_000_000, 2_000_000}, MaxThreads: 2}
	cfgs := s.Configs()
	if len(cfgs) != 4*2*2 {
		t.Fatalf("enumerated %d configs, want 16", len(cfgs))
	}
	if !s.Valid() {
		t.Fatal("valid space reported invalid")
	}
	if (Space{}).Valid() {
		t.Fatal("zero space reported valid")
	}
}

func TestSpaceFor(t *testing.T) {
	sys := repository.System{Cores: 32, ThreadsPerCore: 2, FrequenciesKHz: paperdata.FrequenciesKHz}
	s := SpaceFor(sys)
	if s.MaxCores != 32 || s.MaxThreads != 2 || len(s.FrequenciesKHz) != 3 {
		t.Fatalf("SpaceFor = %+v", s)
	}
}

func TestInvalidSpaceRejected(t *testing.T) {
	bf := &BruteForce{}
	bf.Train(sweepBenchmarks())
	if _, err := bf.BestConfig(Space{}); err == nil {
		t.Fatal("invalid space accepted by brute force")
	}
	l := &Linear{}
	l.Train(sweepBenchmarks())
	if _, err := l.BestConfig(Space{}); err == nil {
		t.Fatal("invalid space accepted by linear")
	}
	g := &Genetic{}
	g.Train(sweepBenchmarks())
	if _, err := g.BestConfig(Space{}); err == nil {
		t.Fatal("invalid space accepted by genetic")
	}
}
