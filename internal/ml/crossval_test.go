package ml

import "testing"

func TestKFoldR2OnLinearData(t *testing.T) {
	d := linearData(200, 0.3, 10)
	r2, err := KFoldR2(d, 5, func(train Dataset) (Model, error) { return FitLinear(train) })
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.98 {
		t.Fatalf("CV R² = %v on nearly-linear data", r2)
	}
}

func TestKFoldR2DetectsUselessModel(t *testing.T) {
	// Pure-noise target: no model generalises; CV R² must be ≈0 or
	// negative, never confidently positive.
	d := linearData(200, 0, 11)
	for i := range d.Y {
		d.Y[i] = NewNoise(uint64(i)) // decorrelate targets from features
	}
	r2, err := KFoldR2(d, 5, func(train Dataset) (Model, error) {
		return FitForest(train, ForestOptions{Trees: 20, Seed: 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2 > 0.3 {
		t.Fatalf("CV R² = %v on pure noise — leakage between folds?", r2)
	}
}

func TestKFoldR2Validation(t *testing.T) {
	d := linearData(20, 0, 12)
	fit := func(train Dataset) (Model, error) { return FitLinear(train) }
	if _, err := KFoldR2(Dataset{}, 5, fit); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := KFoldR2(d, 1, fit); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := KFoldR2(linearData(6, 0, 13), 5, fit); err == nil {
		t.Fatal("6 rows across 5 folds accepted")
	}
}

func TestKFoldPropagatesFitErrors(t *testing.T) {
	d := linearData(20, 0, 14)
	if _, err := KFoldR2(d, 4, func(Dataset) (Model, error) {
		return nil, errBoom
	}); err == nil {
		t.Fatal("fit error swallowed")
	}
}

var errBoom = &fitError{}

type fitError struct{}

func (*fitError) Error() string { return "boom" }

// NewNoise is a deterministic hash-based pseudo-noise used by the
// leakage test above.
func NewNoise(i uint64) float64 {
	i ^= i >> 33
	i *= 0xff51afd7ed558ccd
	i ^= i >> 33
	return float64(i%1000)/500 - 1
}
