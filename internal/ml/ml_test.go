package ml

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"ecosched/internal/leakcheck"
	"ecosched/internal/simclock"
)

func linearData(n int, noise float64, seed uint64) Dataset {
	rng := simclock.NewRNG(seed)
	d := Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x1 := rng.Float64() * 10
		x2 := rng.Float64() * 5
		x3 := rng.Float64()
		d.X[i] = []float64{x1, x2, x3}
		d.Y[i] = 3*x1 - 2*x2 + 0.5*x3 + 7 + noise*rng.Norm()
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	ok := Dataset{X: [][]float64{{1, 2}, {3, 4}}, Y: []float64{1, 2}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Dataset{
		{},
		{X: [][]float64{{1}}, Y: []float64{1, 2}},
		{X: [][]float64{{}}, Y: []float64{1}},
		{X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad dataset %d accepted", i)
		}
	}
}

func TestLinearRecoversExactCoefficients(t *testing.T) {
	d := linearData(200, 0, 1)
	m, err := FitLinear(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -2, 0.5}
	for i, w := range want {
		if math.Abs(m.Weights[i]-w) > 1e-6 {
			t.Fatalf("weight %d = %v, want %v", i, m.Weights[i], w)
		}
	}
	if math.Abs(m.Intercept-7) > 1e-6 {
		t.Fatalf("intercept = %v, want 7", m.Intercept)
	}
	if r2 := R2(m, d); r2 < 0.999999 {
		t.Fatalf("R² = %v on noiseless data", r2)
	}
}

func TestLinearWithNoise(t *testing.T) {
	d := linearData(2000, 0.5, 2)
	m, err := FitLinear(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Weights[0]-3) > 0.1 {
		t.Fatalf("weight 0 = %v, want ≈3", m.Weights[0])
	}
	if r2 := R2(m, d); r2 < 0.98 {
		t.Fatalf("R² = %v", r2)
	}
}

func TestLinearRejectsEmpty(t *testing.T) {
	if _, err := FitLinear(Dataset{}); err == nil {
		t.Fatal("empty dataset fitted")
	}
}

func TestSolveLinearSystem(t *testing.T) {
	a := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	b := []float64{8, -11, -3}
	x, err := SolveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveSingularRejected(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinearSystem(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system solved")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := SolveLinearSystem(nil, nil); err == nil {
		t.Fatal("empty system solved")
	}
	if _, err := SolveLinearSystem([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("non-square system solved")
	}
}

func stepData() Dataset {
	// y = 10 when x0 ≤ 5 else 20; second feature is pure noise shape.
	var d Dataset
	for i := 0; i < 40; i++ {
		x := float64(i) / 4.0
		y := 10.0
		if x > 5 {
			y = 20
		}
		d.X = append(d.X, []float64{x, 1})
		d.Y = append(d.Y, y)
	}
	return d
}

func TestTreeFitsStepFunction(t *testing.T) {
	tree, err := FitTree(stepData(), TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{2, 1}); got != 10 {
		t.Fatalf("Predict(2) = %v, want 10", got)
	}
	if got := tree.Predict([]float64{8, 1}); got != 20 {
		t.Fatalf("Predict(8) = %v, want 20", got)
	}
	if tree.Root.IsLeaf() {
		t.Fatal("tree did not split")
	}
	if tree.Root.Feature != 0 {
		t.Fatalf("split on feature %d, want 0", tree.Root.Feature)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	d := linearData(200, 0, 3)
	tree, err := FitTree(d, TreeOptions{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 3 {
		t.Fatalf("depth = %d, cap was 3", tree.Depth())
	}
}

func TestTreeRespectsMinLeaf(t *testing.T) {
	d := linearData(64, 0, 4)
	tree, err := FitTree(d, TreeOptions{MinLeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if leaves := tree.CountLeaves(); leaves > 4 {
		t.Fatalf("%d leaves with MinLeafSize=16 on 64 rows", leaves)
	}
}

func TestTreeConstantTargetIsLeaf(t *testing.T) {
	d := Dataset{X: [][]float64{{1}, {2}, {3}, {4}}, Y: []float64{5, 5, 5, 5}}
	tree, err := FitTree(d, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Fatal("constant target grew a split")
	}
	if tree.Predict([]float64{99}) != 5 {
		t.Fatal("leaf value wrong")
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	tree, _ := FitTree(stepData(), TreeOptions{})
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 4, 6, 9} {
		if tree.Predict([]float64{x, 1}) != back.Predict([]float64{x, 1}) {
			t.Fatalf("round-tripped tree predicts differently at %v", x)
		}
	}
}

func TestForestDeterministicBySeed(t *testing.T) {
	defer leakcheck.Check(t)()
	d := linearData(150, 0.3, 5)
	f1, err := FitForest(d, ForestOptions{Trees: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := FitForest(d, ForestOptions{Trees: 10, Seed: 42})
	f3, _ := FitForest(d, ForestOptions{Trees: 10, Seed: 43})
	x := []float64{5, 2, 0.5}
	if f1.Predict(x) != f2.Predict(x) {
		t.Fatal("same seed, different forest")
	}
	if f1.Predict(x) == f3.Predict(x) {
		t.Fatal("different seed, identical forest (suspicious)")
	}
}

func TestForestFitsReasonably(t *testing.T) {
	d := linearData(400, 0.2, 6)
	f, err := FitForest(d, ForestOptions{Trees: 30, MinLeafSize: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r2 := R2(f, d); r2 < 0.95 {
		t.Fatalf("forest R² = %v", r2)
	}
}

func TestForestSmoothsSingleTreeVariance(t *testing.T) {
	// On noisy data, averaging bootstrap replicas should not leave the
	// forest's held-out error above a deep single tree's; typically it
	// is far lower. MaxFeatures is pinned to the full feature count so
	// the test isolates bagging: per-split feature subsetting on a
	// strongly linear target adds bias that can swamp the variance
	// reduction at some seeds, which is not the property under test.
	train := linearData(300, 1.0, 8)
	test := linearData(300, 1.0, 9)
	tree, _ := FitTree(train, TreeOptions{})
	forest, _ := FitForest(train, ForestOptions{Trees: 40, MaxFeatures: 3, Seed: 8})
	if MSE(forest, test) > 1.1*MSE(tree, test) {
		t.Fatalf("forest MSE %.3f worse than single tree %.3f on held-out data",
			MSE(forest, test), MSE(tree, test))
	}
}

func TestEmptyForestPredictsZero(t *testing.T) {
	if (&Forest{}).Predict([]float64{1}) != 0 {
		t.Fatal("empty forest should predict 0")
	}
}

func TestMSEAndR2Edges(t *testing.T) {
	m := &LinearRegression{Weights: []float64{0}, Intercept: 5}
	empty := Dataset{}
	if MSE(m, empty) != 0 || R2(m, empty) != 0 {
		t.Fatal("empty dataset metrics nonzero")
	}
	constant := Dataset{X: [][]float64{{1}, {2}}, Y: []float64{5, 5}}
	if R2(m, constant) != 1 {
		t.Fatal("perfect constant prediction should give R²=1")
	}
	mBad := &LinearRegression{Weights: []float64{0}, Intercept: 4}
	if R2(mBad, constant) != 0 {
		t.Fatal("imperfect constant prediction should give R²=0")
	}
}

func TestGAFindsOptimum(t *testing.T) {
	// Maximise -(a−7)² − (b−3)² over a ∈ [0,32), b ∈ [0,16).
	fitness := func(g Genome) float64 {
		da, db := float64(g[0]-7), float64(g[1]-3)
		return -(da*da + db*db)
	}
	best, fit, err := RunGA([]int{32, 16}, fitness, GAOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best[0] != 7 || best[1] != 3 || fit != 0 {
		t.Fatalf("GA found %v (fitness %v), want [7 3]", best, fit)
	}
}

func TestGADeterministicBySeed(t *testing.T) {
	fitness := func(g Genome) float64 { return float64(g[0] % 13) }
	a, fa, _ := RunGA([]int{100}, fitness, GAOptions{Seed: 5})
	b, fb, _ := RunGA([]int{100}, fitness, GAOptions{Seed: 5})
	if a[0] != b[0] || fa != fb {
		t.Fatal("same seed, different GA result")
	}
}

func TestGAValidation(t *testing.T) {
	f := func(Genome) float64 { return 0 }
	if _, _, err := RunGA(nil, f, GAOptions{}); err == nil {
		t.Fatal("empty genome accepted")
	}
	if _, _, err := RunGA([]int{0}, f, GAOptions{}); err == nil {
		t.Fatal("zero-range gene accepted")
	}
}

// Property: GA results are always within the gene ranges.
func TestGAStaysInRange(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		ranges := []int{5, 9, 2}
		g, _, err := RunGA(ranges, func(g Genome) float64 { return float64(g[0] + g[1] + g[2]) },
			GAOptions{Population: 8, Generations: 5, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		for i, r := range ranges {
			if g[i] < 0 || g[i] >= r {
				return false
			}
		}
		// With enough of a budget it should find the max corner often;
		// in-range is the hard property here.
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: OLS residuals are orthogonal to the design (normal
// equations hold).
func TestOLSNormalEquationsProperty(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		d := linearData(50, 1.0, uint64(seed))
		m, err := FitLinear(d)
		if err != nil {
			return false
		}
		for f := 0; f < d.Features(); f++ {
			var dot float64
			for i, row := range d.X {
				dot += row[f] * (d.Y[i] - m.Predict(row))
			}
			if math.Abs(dot) > 1e-4 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureImportance(t *testing.T) {
	// Target depends only on feature 0; feature 1 is noise.
	rng := simclock.NewRNG(21)
	var d Dataset
	for i := 0; i < 300; i++ {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 10
		d.X = append(d.X, []float64{x0, x1})
		d.Y = append(d.Y, 3*x0*x0)
	}
	f, err := FitForest(d, ForestOptions{Trees: 20, MaxFeatures: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance(2)
	if len(imp) != 2 {
		t.Fatalf("importance = %v", imp)
	}
	if imp[0] < 0.9 {
		t.Fatalf("informative feature importance %.3f, noise %.3f", imp[0], imp[1])
	}
	if sum := imp[0] + imp[1]; math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
	// Empty forest: all zeros.
	zero := (&Forest{}).FeatureImportance(2)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("empty forest importance %v", zero)
	}
}
