// Package optimizer is Chronus's Optimizer integration interface
// (paper §3.2): models that, given benchmark history, predict the most
// energy-efficient configuration for a system/application pair. The
// paper ships brute force, linear regression and a random-forest
// regressor; we add the genetic-algorithm search of the related-work
// baseline (Table 3) as a fourth implementation.
//
// Optimizers serialise to JSON for blob storage and are reconstructed
// by type name via Decode — the ModelFactory pattern of the paper's
// Listing 2.
package optimizer

import (
	"encoding/json"
	"fmt"

	"ecosched/internal/perfmodel"
	"ecosched/internal/repository"
)

// Optimizer type names, as accepted by `chronus init-model --model`.
const (
	NameBruteForce   = "brute-force"
	NameLinear       = "linear-regression"
	NameRandomForest = "random-forest"
	NameGenetic      = "genetic"
	// NameRandomTree is the paper CLI's alias for the forest model
	// (Figure 7 lists "random-tree").
	NameRandomTree = "random-tree"
)

// Names lists the canonical optimizer names.
func Names() []string {
	return []string{NameBruteForce, NameLinear, NameRandomForest, NameGenetic}
}

// Space is the configuration search space of one system: every
// (cores, frequency, threads-per-core) combination the node supports.
type Space struct {
	MaxCores       int
	FrequenciesKHz []int
	MaxThreads     int
}

// SpaceFor derives the search space from a system record.
func SpaceFor(sys repository.System) Space {
	return Space{
		MaxCores:       sys.Cores,
		FrequenciesKHz: sys.FrequenciesKHz,
		MaxThreads:     sys.ThreadsPerCore,
	}
}

// Configs enumerates the space.
func (s Space) Configs() []perfmodel.Config {
	var out []perfmodel.Config
	for cores := 1; cores <= s.MaxCores; cores++ {
		for _, f := range s.FrequenciesKHz {
			for tpc := 1; tpc <= s.MaxThreads; tpc++ {
				out = append(out, perfmodel.Config{Cores: cores, FreqKHz: f, ThreadsPerCore: tpc})
			}
		}
	}
	return out
}

// Valid reports whether the space is non-degenerate.
func (s Space) Valid() bool {
	return s.MaxCores >= 1 && len(s.FrequenciesKHz) > 0 && s.MaxThreads >= 1
}

// Optimizer is the integration interface. An optimizer is trained on
// benchmark rows and then asked for the most efficient configuration.
type Optimizer interface {
	// Name returns the optimizer's type name.
	Name() string
	// Train fits the optimizer on benchmark history.
	Train(rows []repository.Benchmark) error
	// PredictEfficiency estimates GFLOPS per watt for a configuration.
	// Calling it before Train is an error.
	PredictEfficiency(cfg perfmodel.Config) (float64, error)
	// BestConfig returns the configuration with the highest predicted
	// efficiency within the space.
	BestConfig(space Space) (perfmodel.Config, error)
}

// New constructs an untrained optimizer by type name.
func New(name string) (Optimizer, error) {
	switch name {
	case NameBruteForce:
		return &BruteForce{}, nil
	case NameLinear:
		return &Linear{}, nil
	case NameRandomForest, NameRandomTree:
		return &RandomForest{}, nil
	case NameGenetic:
		return &Genetic{}, nil
	default:
		return nil, fmt.Errorf("optimizer: unknown optimizer type %q", name)
	}
}

// envelope is the serialised form: a type tag plus the model payload.
type envelope struct {
	Type  string          `json:"type"`
	Model json.RawMessage `json:"model"`
}

// Encode serialises a trained optimizer for blob storage.
func Encode(o Optimizer) ([]byte, error) {
	payload, err := json.Marshal(o)
	if err != nil {
		return nil, fmt.Errorf("optimizer: encode %s: %w", o.Name(), err)
	}
	return json.Marshal(envelope{Type: o.Name(), Model: payload})
}

// Decode reconstructs an optimizer from its serialised form.
func Decode(data []byte) (Optimizer, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("optimizer: decode: %w", err)
	}
	o, err := New(env.Type)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(env.Model, o); err != nil {
		return nil, fmt.Errorf("optimizer: decode %s payload: %w", env.Type, err)
	}
	return o, nil
}

// features maps a configuration to the regression feature vector the
// paper's models use: cores, frequency and threads per core.
func features(cfg perfmodel.Config) []float64 {
	return []float64{float64(cfg.Cores), cfg.GHz(), float64(cfg.ThreadsPerCore)}
}

// trainingSet converts benchmark rows to a feature matrix with
// GFLOPS-per-watt targets, skipping rows without valid power data.
func trainingSet(rows []repository.Benchmark) (xs [][]float64, ys []float64) {
	for _, b := range rows {
		eff := b.GFLOPSPerWatt()
		if eff <= 0 {
			continue
		}
		cfg := perfmodel.Config{Cores: b.Cores, FreqKHz: b.FreqKHz, ThreadsPerCore: b.ThreadsPerCore}
		xs = append(xs, features(cfg))
		ys = append(ys, eff)
	}
	return xs, ys
}

// argmaxConfig evaluates predict over the space and returns the best
// configuration: among equal efficiencies the earliest configuration
// in enumeration order wins, and the first failing configuration's
// error comes back.
func argmaxConfig(space Space, predict func(perfmodel.Config) (float64, error)) (perfmodel.Config, error) {
	if !space.Valid() {
		return perfmodel.Config{}, fmt.Errorf("optimizer: invalid search space %+v", space)
	}
	var best perfmodel.Config
	bestEff := -1.0
	for _, cfg := range space.Configs() {
		eff, err := predict(cfg)
		if err != nil {
			return perfmodel.Config{}, err
		}
		if eff > bestEff {
			bestEff = eff
			best = cfg
		}
	}
	return best, nil
}

// ErrUntrained is returned when prediction is attempted before Train.
var ErrUntrained = fmt.Errorf("optimizer: not trained")
