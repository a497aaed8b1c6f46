package workload

import (
	"fmt"
	"math"

	"ecosched/internal/simclock"
)

// Dist is a declarative scalar distribution, the job-shape vocabulary
// of the spec format: work sizes, sleep durations, task counts and
// time limits are all described as one of these and sampled through
// the seeded simulation RNG.
type Dist struct {
	// Kind selects the family: constant, uniform, exponential,
	// lognormal, gamma or weibull. The zero Dist (empty kind) is
	// "unset" and samples 0 — callers use it for optional fields.
	Kind string `json:"kind,omitempty"`
	// Value is the constant's value.
	Value float64 `json:"value,omitempty"`
	// Min/Max bound the uniform.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Mean parameterises the exponential.
	Mean float64 `json:"mean,omitempty"`
	// Mu/Sigma parameterise the lognormal (of the underlying normal).
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Shape/Scale parameterise the gamma and weibull.
	Shape float64 `json:"shape,omitempty"`
	Scale float64 `json:"scale,omitempty"`
}

// Distribution kinds.
const (
	DistConstant    = "constant"
	DistUniform     = "uniform"
	DistExponential = "exponential"
	DistLogNormal   = "lognormal"
	DistGamma       = "gamma"
	DistWeibull     = "weibull"
)

// IsZero reports whether the distribution is unset.
func (d *Dist) IsZero() bool { return d.Kind == "" }

// Validate checks the parameters for the declared kind.
func (d *Dist) Validate() error {
	switch d.Kind {
	case "":
		return nil
	case DistConstant:
		// Any value is a valid constant.
	case DistUniform:
		if d.Max < d.Min {
			return fmt.Errorf("workload: uniform max %g < min %g", d.Max, d.Min)
		}
	case DistExponential:
		if d.Mean <= 0 {
			return fmt.Errorf("workload: exponential needs mean > 0, got %g", d.Mean)
		}
	case DistLogNormal:
		if d.Sigma < 0 {
			return fmt.Errorf("workload: lognormal needs sigma >= 0, got %g", d.Sigma)
		}
	case DistGamma, DistWeibull:
		if d.Shape <= 0 || d.Scale <= 0 {
			return fmt.Errorf("workload: %s needs shape and scale > 0, got shape=%g scale=%g",
				d.Kind, d.Shape, d.Scale)
		}
	default:
		return fmt.Errorf("workload: unknown distribution kind %q", d.Kind)
	}
	return nil
}

// Sample draws one value. The zero Dist samples 0.
func (d *Dist) Sample(r *simclock.RNG) float64 {
	switch d.Kind {
	case DistConstant:
		return d.Value
	case DistUniform:
		return d.Min + (d.Max-d.Min)*r.Float64()
	case DistExponential:
		return Exponential(r, d.Mean)
	case DistLogNormal:
		return LogNormal(r, d.Mu, d.Sigma)
	case DistGamma:
		return Gamma(r, d.Shape, d.Scale)
	case DistWeibull:
		return Weibull(r, d.Shape, d.Scale)
	}
	return 0
}

// Expectation returns the distribution's mean, used by spec
// validation and the distribution-sanity tests.
func (d *Dist) Expectation() float64 {
	switch d.Kind {
	case DistConstant:
		return d.Value
	case DistUniform:
		return (d.Min + d.Max) / 2
	case DistExponential:
		return d.Mean
	case DistLogNormal:
		return math.Exp(d.Mu + d.Sigma*d.Sigma/2)
	case DistGamma:
		return d.Shape * d.Scale
	case DistWeibull:
		return d.Scale * math.Gamma(1+1/d.Shape)
	}
	return 0
}

// Variance returns the distribution's variance.
func (d *Dist) Variance() float64 {
	switch d.Kind {
	case DistConstant:
		return 0
	case DistUniform:
		w := d.Max - d.Min
		return w * w / 12
	case DistExponential:
		return d.Mean * d.Mean
	case DistLogNormal:
		s2 := d.Sigma * d.Sigma
		return (math.Exp(s2) - 1) * math.Exp(2*d.Mu+s2)
	case DistGamma:
		return d.Shape * d.Scale * d.Scale
	case DistWeibull:
		m := d.Expectation()
		return d.Scale*d.Scale*math.Gamma(1+2/d.Shape) - m*m
	}
	return 0
}

// Exponential samples Exp(mean) by inversion: -mean·ln(1-U).
func Exponential(r *simclock.RNG, mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// Weibull samples Weibull(shape k, scale λ) by inversion:
// λ·(-ln(1-U))^(1/k).
func Weibull(r *simclock.RNG, shape, scale float64) float64 {
	return scale * math.Pow(-math.Log(1-r.Float64()), 1/shape)
}

// LogNormal samples exp(N(mu, sigma²)).
func LogNormal(r *simclock.RNG, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// Gamma samples Gamma(shape k, scale θ) with the Marsaglia–Tsang
// squeeze method (2000). For k < 1 it uses the boosting identity
// Gamma(k) = Gamma(k+1)·U^(1/k). The rejection loop consumes a
// variable number of RNG draws, which is fine for determinism: the
// draw sequence is still a pure function of the generator state.
func Gamma(r *simclock.RNG, shape, scale float64) float64 {
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return Gamma(r, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}
