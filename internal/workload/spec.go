package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// SpecVersion is the current spec/log format version. Parsers reject
// other versions rather than guessing.
const SpecVersion = 1

// Duration is a time.Duration that marshals as a Go duration string
// ("90s", "1h30m") so specs stay human-editable.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler: a duration string, or a
// bare number of seconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("workload: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(data, &secs); err != nil {
		return fmt.Errorf("workload: duration must be a string or seconds number, got %s", data)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Spec is a declarative cluster-scale workload: the cluster topology
// to simulate and the client population submitting to it. A (Spec,
// Seed) pair fully determines the generated submission stream.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Seed drives every sampling decision. Each client derives its own
	// RNG from (Seed, client index), so adding a client never perturbs
	// the other clients' streams.
	Seed uint64 `json:"seed"`
	// Horizon bounds generation: no submission is generated at or past
	// start+Horizon (jobs already queued still complete).
	Horizon Duration `json:"horizon"`
	// MaxSubmissions caps the total generated submissions across all
	// clients (0 = unbounded, the horizon is the only stop).
	MaxSubmissions int         `json:"max_submissions,omitempty"`
	Cluster        ClusterSpec `json:"cluster"`
	Clients        []Client    `json:"clients"`
	// Policy selects the cluster energy policies the run schedules
	// under (nil = none: the plain dispatch path).
	Policy *PolicySpec `json:"policy,omitempty"`
}

// ClusterSpec describes the simulated cluster to build.
type ClusterSpec struct {
	Partitions []PartitionSpec `json:"partitions"`
}

// PartitionSpec is one partition and its dedicated nodes.
type PartitionSpec struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	// Policy selects the scheduling policy: "fifo" (default) or
	// "multifactor".
	Policy string `json:"policy,omitempty"`
	// MaxTime caps job time limits in this partition (0 = unlimited).
	MaxTime Duration `json:"max_time,omitempty"`
	// Default marks the partition jobs land in when they name none.
	// When no partition is marked, the first one is the default.
	Default bool `json:"default,omitempty"`
}

// Client is one submitting population: an arrival process, optional
// diurnal modulation, and the distribution of job shapes it submits.
type Client struct {
	Name    string      `json:"name"`
	Arrival ArrivalSpec `json:"arrival"`
	// Windows modulate the arrival rate by hour of day (UTC). Hours
	// not covered by any window run at weight 1.
	Windows []Window `json:"windows,omitempty"`
	Jobs    JobSpec  `json:"jobs"`
	// Users is the number of distinct user ids this client submits as
	// (default 1); fair-share policies see them as separate users.
	Users int `json:"users,omitempty"`
}

// Arrival processes.
const (
	ArrivalPoisson = "poisson"
	ArrivalGamma   = "gamma"
	ArrivalWeibull = "weibull"
)

// ArrivalSpec is the client's interarrival process. RatePerHour is
// the mean arrival rate; Shape tunes the interarrival distribution's
// burstiness for the gamma and weibull processes (1 = exponential;
// <1 bursty, >1 regular).
type ArrivalSpec struct {
	Process     string  `json:"process"`
	RatePerHour float64 `json:"rate_per_hour"`
	Shape       float64 `json:"shape,omitempty"`
}

// Window is one diurnal load window: between FromHour (inclusive) and
// ToHour (exclusive), UTC, the client's arrival rate is multiplied by
// Weight.
type Window struct {
	FromHour int     `json:"from_hour"`
	ToHour   int     `json:"to_hour"`
	Weight   float64 `json:"weight"`
}

// JobSpec describes the jobs a client submits: the shape mix, the
// resource request, and where they go.
type JobSpec struct {
	// SleepFraction is the probability a job is a fixed-duration sleep
	// job (sampled from Sleep) instead of a fixed-work job (sampled
	// from Work). 0 = all fixed-work, 1 = all sleep.
	SleepFraction float64 `json:"sleep_fraction,omitempty"`
	// Work is the FLOP budget distribution in GFLOP (fixed-work jobs).
	Work Dist `json:"work,omitempty"`
	// Sleep is the runtime distribution in seconds (sleep jobs).
	Sleep Dist `json:"sleep,omitempty"`
	// Tasks is the requested-core distribution (samples are rounded
	// and clamped to >= 1). Unset = 1 task.
	Tasks Dist `json:"tasks,omitempty"`
	// ThreadsPerCPU is the hyper-threading request (0 = 1).
	ThreadsPerCPU int `json:"threads_per_cpu,omitempty"`
	// TimeLimit is the requested wall-time distribution in seconds
	// (unset = the cluster default).
	TimeLimit Dist `json:"time_limit,omitempty"`
	// Partitions is the weighted choice of target partition. Unset =
	// the cluster's default partition.
	Partitions []PartitionWeight `json:"partitions,omitempty"`
	// OptInFraction is the probability a job carries the eco plugin's
	// opt-in comment ("chronus").
	OptInFraction float64 `json:"opt_in_fraction,omitempty"`
	// Profile classifies this client's jobs for co-scheduling:
	// "compute" (HPCG-like), "memory" (STREAM-like), or "" (never
	// paired).
	Profile string `json:"profile,omitempty"`
	// ExclusiveFraction is the probability a job demands a whole node
	// (never co-scheduled).
	ExclusiveFraction float64 `json:"exclusive_fraction,omitempty"`
	// DeferrableFraction is the probability a job accepts energy-aware
	// deferral.
	DeferrableFraction float64 `json:"deferrable_fraction,omitempty"`
	// DeadlineSlack is the distribution of extra seconds past
	// submit+time_limit a deferrable job's deadline allows. Requires a
	// time_limit distribution.
	DeadlineSlack Dist `json:"deadline_slack,omitempty"`
}

// PartitionWeight is one weighted partition-choice entry.
type PartitionWeight struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// Deferral signals (DeferralSpec.Signal): the energymarket series the
// threshold is compared against.
const (
	SignalPrice  = "price"  // spot price, EUR/kWh
	SignalCarbon = "carbon" // carbon intensity, gCO2/kWh
)

// PolicySpec selects cluster energy policies for a run: power budgets
// enforced at dispatch, co-scheduling of complementary job profiles,
// and price/carbon-driven deferral. An empty block is rejected — a
// policy spec must select something.
type PolicySpec struct {
	// PowerCapW is the cluster-wide power budget in watts, prorated
	// across partitions by node count (0 = no cluster cap).
	PowerCapW float64 `json:"power_cap_w,omitempty"`
	// PartitionCapsW are explicit per-partition budgets; they override
	// the prorated cluster cap downward.
	PartitionCapsW []PartitionCap `json:"partition_caps_w,omitempty"`
	// CapMode is what happens to a job that does not fit the budget:
	// "wait" (default) or "freqcap" (pin a lower frequency that fits).
	CapMode string `json:"cap_mode,omitempty"`
	// CoSchedule pairs compute-bound and memory-bound jobs on one node.
	CoSchedule bool `json:"co_schedule,omitempty"`
	// InterferencePenalty stretches a co-scheduled secondary's runtime
	// (0 = the simulator default; otherwise >= 1).
	InterferencePenalty float64 `json:"interference_penalty,omitempty"`
	// Deferral holds deferrable jobs while the energy signal is high.
	Deferral *DeferralSpec `json:"deferral,omitempty"`
}

// PartitionCap is one named partition's power budget.
type PartitionCap struct {
	Name string  `json:"name"`
	CapW float64 `json:"cap_w"`
}

// DeferralSpec configures energy-aware deferral. MaxDefer is
// mandatory: without a bound, a persistently high signal would starve
// deferrable jobs.
type DeferralSpec struct {
	Signal    string  `json:"signal"`    // SignalPrice or SignalCarbon
	Threshold float64 `json:"threshold"` // dispatch when signal <= threshold
	// MaxDefer bounds how long past submission a job may be held.
	MaxDefer Duration `json:"max_defer"`
	// Check is the signal re-evaluation cadence (0 = simulator default;
	// else at least MinDeferCheck).
	Check Duration `json:"check,omitempty"`
}

// MinDeferCheck is the shortest deferral check cadence: the price's
// demand and solar terms resolve to the minute, so a shorter one reads
// the same signal again, and a held job re-armed every few nanoseconds
// never lets a run finish.
const MinDeferCheck = time.Minute

// Label is the policy set's stable display name ("powercap-wait",
// "powercap-freqcap+cosched+defer-price", ... or "none"), used in
// reports and benchmark rows so policy runs compare by name.
func (p *PolicySpec) Label() string {
	if p == nil {
		return "none"
	}
	label := ""
	add := func(s string) {
		if label != "" {
			label += "+"
		}
		label += s
	}
	if p.PowerCapW > 0 || len(p.PartitionCapsW) > 0 {
		mode := p.CapMode
		if mode == "" {
			mode = "wait"
		}
		add("powercap-" + mode)
	}
	if p.CoSchedule {
		add("cosched")
	}
	if p.Deferral != nil {
		add("defer-" + p.Deferral.Signal)
	}
	if label == "" {
		return "none"
	}
	return label
}

// validate checks the policy block against the declared partitions.
func (p *PolicySpec) validate(parts map[string]bool) error {
	capped := p.PowerCapW > 0 || len(p.PartitionCapsW) > 0
	if !capped && !p.CoSchedule && p.Deferral == nil {
		return fmt.Errorf("policy block selects nothing (set power_cap_w, co_schedule, or deferral)")
	}
	if p.PowerCapW < 0 {
		return fmt.Errorf("negative power_cap_w %g", p.PowerCapW)
	}
	seen := map[string]bool{}
	for _, e := range p.PartitionCapsW {
		if !parts[e.Name] {
			return fmt.Errorf("partition cap names unknown partition %q", e.Name)
		}
		if seen[e.Name] {
			return fmt.Errorf("duplicate partition cap %q", e.Name)
		}
		seen[e.Name] = true
		if e.CapW <= 0 {
			return fmt.Errorf("partition %q cap_w must be > 0, got %g", e.Name, e.CapW)
		}
	}
	switch p.CapMode {
	case "", "wait", "freqcap":
	default:
		return fmt.Errorf("unknown cap_mode %q (want wait or freqcap)", p.CapMode)
	}
	if p.CapMode != "" && !capped {
		return fmt.Errorf("cap_mode %q without a power cap", p.CapMode)
	}
	if p.InterferencePenalty != 0 {
		if !p.CoSchedule {
			return fmt.Errorf("interference_penalty without co_schedule")
		}
		if p.InterferencePenalty < 1 {
			return fmt.Errorf("interference_penalty %g must be >= 1", p.InterferencePenalty)
		}
	}
	if d := p.Deferral; d != nil {
		switch d.Signal {
		case SignalPrice, SignalCarbon:
		default:
			return fmt.Errorf("unknown deferral signal %q (want %q or %q)", d.Signal, SignalPrice, SignalCarbon)
		}
		if d.Threshold <= 0 {
			return fmt.Errorf("deferral threshold must be > 0, got %g", d.Threshold)
		}
		if d.MaxDefer <= 0 {
			return fmt.Errorf("deferral needs max_defer > 0 (unbounded deferral starves jobs)")
		}
		if d.Check < 0 {
			return fmt.Errorf("negative deferral check %v", d.Check.Std())
		}
		if d.Check != 0 && d.Check.Std() < MinDeferCheck {
			return fmt.Errorf("deferral check %v is under %v", d.Check.Std(), MinDeferCheck)
		}
	}
	return nil
}

// ParseSpec decodes and validates a JSON spec. Unknown keys are
// rejected.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // a misspelled key is an error, not a default
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("workload: parsing spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("workload: parsing spec: data after the top-level value")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	spec, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// Validate checks the spec for structural errors.
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("workload: spec version %d, want %d", s.Version, SpecVersion)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("workload: spec needs a positive horizon")
	}
	if s.MaxSubmissions < 0 {
		return fmt.Errorf("workload: negative max_submissions")
	}
	if len(s.Cluster.Partitions) == 0 {
		return fmt.Errorf("workload: spec needs at least one partition")
	}
	parts := map[string]bool{}
	for i, p := range s.Cluster.Partitions {
		if p.Name == "" {
			return fmt.Errorf("workload: partition %d has no name", i)
		}
		if parts[p.Name] {
			return fmt.Errorf("workload: duplicate partition %q", p.Name)
		}
		parts[p.Name] = true
		if p.Nodes <= 0 {
			return fmt.Errorf("workload: partition %q needs nodes > 0", p.Name)
		}
		switch p.Policy {
		case "", "fifo", "multifactor":
		default:
			return fmt.Errorf("workload: partition %q: unknown policy %q", p.Name, p.Policy)
		}
	}
	if s.Policy != nil {
		if err := s.Policy.validate(parts); err != nil {
			return fmt.Errorf("workload: policy: %w", err)
		}
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("workload: spec needs at least one client")
	}
	for i, c := range s.Clients {
		if c.Name == "" {
			return fmt.Errorf("workload: client %d has no name", i)
		}
		if err := c.validate(parts); err != nil {
			return fmt.Errorf("workload: client %q: %w", c.Name, err)
		}
	}
	return nil
}

func (c Client) validate(parts map[string]bool) error {
	switch c.Arrival.Process {
	case ArrivalPoisson:
	case ArrivalGamma, ArrivalWeibull:
		if c.Arrival.Shape <= 0 {
			return fmt.Errorf("%s arrival needs shape > 0", c.Arrival.Process)
		}
	default:
		return fmt.Errorf("unknown arrival process %q", c.Arrival.Process)
	}
	if c.Arrival.RatePerHour <= 0 {
		return fmt.Errorf("arrival needs rate_per_hour > 0")
	}
	for _, w := range c.Windows {
		if w.FromHour < 0 || w.ToHour > 24 || w.FromHour >= w.ToHour {
			return fmt.Errorf("bad window [%d, %d)", w.FromHour, w.ToHour)
		}
		if w.Weight <= 0 {
			return fmt.Errorf("window weight must be > 0, got %g", w.Weight)
		}
	}
	if c.Users < 0 {
		return fmt.Errorf("negative users")
	}
	j := c.Jobs
	if j.SleepFraction < 0 || j.SleepFraction > 1 {
		return fmt.Errorf("sleep_fraction %g outside [0, 1]", j.SleepFraction)
	}
	if j.OptInFraction < 0 || j.OptInFraction > 1 {
		return fmt.Errorf("opt_in_fraction %g outside [0, 1]", j.OptInFraction)
	}
	switch j.Profile {
	case "", "compute", "memory":
	default:
		return fmt.Errorf("unknown profile %q (want compute or memory)", j.Profile)
	}
	if j.ExclusiveFraction < 0 || j.ExclusiveFraction > 1 {
		return fmt.Errorf("exclusive_fraction %g outside [0, 1]", j.ExclusiveFraction)
	}
	if j.DeferrableFraction < 0 || j.DeferrableFraction > 1 {
		return fmt.Errorf("deferrable_fraction %g outside [0, 1]", j.DeferrableFraction)
	}
	if !j.DeadlineSlack.IsZero() && j.TimeLimit.IsZero() {
		return fmt.Errorf("deadline_slack needs a time_limit distribution")
	}
	if j.SleepFraction < 1 && j.Work.IsZero() {
		return fmt.Errorf("fixed-work jobs need a work distribution")
	}
	if j.SleepFraction > 0 && j.Sleep.IsZero() {
		return fmt.Errorf("sleep jobs need a sleep distribution")
	}
	for _, d := range []struct {
		name string
		d    Dist
	}{{"work", j.Work}, {"sleep", j.Sleep}, {"tasks", j.Tasks}, {"time_limit", j.TimeLimit}, {"deadline_slack", j.DeadlineSlack}} {
		if err := d.d.Validate(); err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
	}
	for _, pw := range j.Partitions {
		if !parts[pw.Name] {
			return fmt.Errorf("jobs target unknown partition %q", pw.Name)
		}
		if pw.Weight <= 0 {
			return fmt.Errorf("partition %q weight must be > 0", pw.Name)
		}
	}
	return nil
}
