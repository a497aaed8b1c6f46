package ipmi

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/telemetry"
)

// oracleSampler is the sampler without run-ahead: every sample is a
// clock event of its own, armed by the one before. Sampler must take
// the same samples, in the same order against every other event.
type oracleSampler struct {
	sim      *simclock.Sim
	conn     *Conn
	node     *hw.Node
	trace    *telemetry.Trace
	interval time.Duration
	gen      uint64
}

func (o *oracleSampler) Fire(gen uint64) {
	if gen != o.gen {
		return
	}
	o.sample()
	o.sim.AfterAction(o.interval, o, gen)
}

func (o *oracleSampler) Start(interval time.Duration) {
	o.interval = interval
	o.gen++
	o.sample()
	o.sim.AfterAction(interval, o, o.gen)
}

func (o *oracleSampler) Stop() {
	o.gen++
	o.sample()
}

func (o *oracleSampler) sample() {
	systemW, cpuW, tempC := o.conn.values()
	_ = o.trace.Append(telemetry.Sample{
		Tick: o.sim.NowTick(), SystemW: systemW, CPUW: cpuW, CPUTempC: tempC,
		FreqKHz: o.node.CurrentFreqKHz(),
	})
}

// sampling is what the differential test drives: Sampler or the oracle.
type sampling interface {
	Start(time.Duration)
	Stop()
}

type opKind int

const (
	opNothing opKind = iota
	opStartJob
	opEndJob
	opGovernor
	opUserspaceFreq
	opStop
	opStart
)

// op is one change to a world, applied directly between run calls or
// by an event. An event op with a child arms a no-op event that far
// after it fires.
type op struct {
	kind     opKind
	cfg      perfmodel.Config
	gov      hw.GovernorKind
	khz      int
	interval time.Duration
	child    time.Duration
}

// world is one node, its sampler and the events armed on its clock.
// It is the Action of every non-sampler event; the event's argument
// indexes ops.
type world struct {
	sim     *simclock.Sim
	node    *hw.Node
	job     *hw.Job
	trace   *telemetry.Trace
	sampler sampling
	ops     []op
	fired   []bool
	// The sampler's grid: its last start instant and interval.
	on       bool
	gridBase time.Time
	interval time.Duration
	// Armed and not yet fired starts and stops, which decide whether
	// Run ends.
	pendingStarts, pendingStops int
}

func newWorld(oracle bool) *world {
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 3)
	conn, _ := NewBMC(node).Open(true)
	w := &world{sim: sim, node: node, trace: &telemetry.Trace{}}
	if oracle {
		w.sampler = &oracleSampler{sim: sim, conn: conn, node: node, trace: w.trace}
	} else {
		w.sampler = NewSampler(sim, conn, node, w.trace)
	}
	return w
}

func (w *world) arm(at time.Time, o op) int {
	id := len(w.ops)
	w.ops = append(w.ops, o)
	w.fired = append(w.fired, false)
	switch o.kind {
	case opStart:
		w.pendingStarts++
	case opStop:
		w.pendingStops++
	}
	w.sim.AtTick(at.UnixNano(), w, uint64(id))
	return id
}

func (w *world) Fire(id uint64) {
	o := w.ops[id]
	w.fired[id] = true
	switch o.kind {
	case opStart:
		w.pendingStarts--
	case opStop:
		w.pendingStops--
	}
	w.apply(o)
	if o.child > 0 {
		w.arm(w.sim.Now().Add(o.child), op{})
	}
}

func (w *world) apply(o op) {
	switch o.kind {
	case opStartJob:
		if w.job == nil {
			if j, err := w.node.StartJob(o.cfg); err == nil {
				w.job = j
			}
		}
	case opEndJob:
		if w.job != nil {
			w.job.End()
			w.job = nil
		}
	case opGovernor:
		_ = w.node.SetGovernor(o.gov)
	case opUserspaceFreq:
		_ = w.node.SetUserspaceFreq(o.khz)
	case opStop:
		w.sampler.Stop()
		w.on = false
	case opStart:
		w.sampler.Start(o.interval)
		w.on, w.gridBase, w.interval = true, w.sim.Now(), o.interval
	}
}

// runEnds reports whether Run would return: no start is armed, and the
// sampler is off or a stop is armed.
func (w *world) runEnds() bool {
	return w.pendingStarts == 0 && (!w.on || w.pendingStops > 0)
}

// gridAfter returns the k-th grid instant at or after now (k ≥ 0), or
// now plus k seconds when the sampler is off.
func (w *world) gridAfter(k int) time.Time {
	now := w.sim.Now()
	if !w.on {
		return now.Add(time.Duration(k) * time.Second)
	}
	n := (now.Sub(w.gridBase) + w.interval - 1) / w.interval
	return w.gridBase.Add((n + time.Duration(k)) * w.interval)
}

// diff reports how the run-ahead world differs from the oracle's, and
// reads both nodes' energy and sensors, as every caller does.
func diff(a, o *world) string {
	if !a.sim.Now().Equal(o.sim.Now()) {
		return fmt.Sprintf("now %v, oracle %v", a.sim.Now(), o.sim.Now())
	}
	if a.sim.Pending() != o.sim.Pending() {
		return fmt.Sprintf("%d events pending, oracle %d", a.sim.Pending(), o.sim.Pending())
	}
	if !slices.Equal(a.trace.Samples, o.trace.Samples) {
		return fmt.Sprintf("%d samples, oracle %d; first difference at %d", a.trace.Len(), o.trace.Len(), firstDiff(a.trace.Samples, o.trace.Samples))
	}
	if !slices.Equal(a.fired, o.fired) {
		return "the fired events differ"
	}
	as, ac := a.node.EnergyJ()
	os, oc := o.node.EnergyJ()
	if as != os || ac != oc {
		return fmt.Sprintf("energy %v/%v J, oracle %v/%v J", as, ac, os, oc)
	}
	a1, a2, a3 := a.node.Sensors()
	o1, o2, o3 := o.node.Sensors()
	if a1 != o1 || a2 != o2 || a3 != o3 {
		return fmt.Sprintf("sensors %v/%v/%v, oracle %v/%v/%v", a1, a2, a3, o1, o2, o3)
	}
	return ""
}

func firstDiff(a, b []telemetry.Sample) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

var (
	diffConfigs = []perfmodel.Config{
		perfmodel.StandardConfig(),
		perfmodel.BestConfig(),
		{Cores: 8, FreqKHz: 1_500_000, ThreadsPerCore: 2},
		{Cores: 16, ThreadsPerCore: 1}, // the governor's frequency
	}
	diffGovernors = []hw.GovernorKind{hw.GovernorPerformance, hw.GovernorPowersave, hw.GovernorOndemand, hw.GovernorUserspace}
	diffFreqs     = []int{1_500_000, 2_200_000, 2_500_000}
	diffIntervals = []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 1700 * time.Millisecond}
)

// opWeights draws changes for a schedule: a stop for every two starts
// keeps the sampler running most of the time.
var opWeights = []opKind{
	opNothing, opNothing, opNothing,
	opStartJob, opStartJob, opEndJob, opEndJob,
	opGovernor, opUserspaceFreq, opUserspaceFreq,
	opStop, opStart, opStart,
}

// randomOp draws a change for a schedule.
func randomOp(r *simclock.RNG) op {
	o := op{kind: opWeights[r.Intn(len(opWeights))]}
	switch o.kind {
	case opStartJob:
		o.cfg = diffConfigs[r.Intn(len(diffConfigs))]
	case opGovernor:
		o.gov = diffGovernors[r.Intn(len(diffGovernors))]
	case opUserspaceFreq:
		o.khz = diffFreqs[r.Intn(len(diffFreqs))]
	case opStart:
		o.interval = diffIntervals[r.Intn(len(diffIntervals))]
	}
	if r.Intn(4) == 0 {
		o.child = time.Duration(1+r.Intn(3)) * time.Second
	}
	return o
}

// randomInstant draws an instant at or after now: a grid instant, one
// between grid instants, or now itself.
func randomInstant(r *simclock.RNG, w *world) time.Time {
	switch r.Intn(3) {
	case 0:
		return w.gridAfter(r.Intn(12))
	case 1:
		return w.sim.Now().Add(time.Duration(r.Intn(90_000)) * time.Millisecond)
	default:
		return w.sim.Now()
	}
}

// TestSamplerMatchesOneEventPerSampleOracle drives a run-ahead sampler
// and the one-event-per-sample oracle through the same seeded schedules
// — job starts and ends, governor and frequency changes, stops and
// restarts, events on grid instants armed before and after the
// sampler's event for the instant, children armed from inside events —
// under Step loops, Run, RunUntilTick and RunBeforeTick. After every call the
// two must agree bit for bit on the clock, the pending events, the
// samples, the node's energy and its sensors.
func TestSamplerMatchesOneEventPerSampleOracle(t *testing.T) {
	const schedules, calls = 240, 60
	for seed := uint64(1); seed <= schedules; seed++ {
		r := simclock.NewRNG(seed)
		a, o := newWorld(false), newWorld(true)
		both := func(f func(*world)) {
			f(a)
			f(o)
		}
		first := op{kind: opStart, interval: diffIntervals[r.Intn(len(diffIntervals))]}
		both(func(w *world) { w.apply(first) })
		if r.Intn(2) == 0 {
			cfg := op{kind: opStartJob, cfg: diffConfigs[r.Intn(len(diffConfigs))]}
			both(func(w *world) { w.apply(cfg) })
		}
		for call := 0; call < calls; call++ {
			var what string
			switch k := r.Intn(10); {
			case k < 3: // arm an event
				at, ev := randomInstant(r, a), randomOp(r)
				both(func(w *world) { w.arm(at, ev) })
				what = fmt.Sprintf("arm %v at %v", ev, at)
			case k < 4: // change the node or the sampler now
				ev := randomOp(r)
				both(func(w *world) { w.apply(ev) })
				what = fmt.Sprintf("apply %v", ev)
			case k < 6: // step until an armed event fires
				id := slices.Index(a.fired, false)
				if id < 0 {
					continue
				}
				both(func(w *world) {
					for !w.fired[id] {
						w.sim.Step()
					}
				})
				what = fmt.Sprintf("step to event %d", id)
			case k < 7:
				if !a.runEnds() {
					continue
				}
				both(func(w *world) { w.sim.Run() })
				what = "run"
			case k < 9:
				at := randomInstant(r, a)
				both(func(w *world) { w.sim.RunUntilTick(at.UnixNano()) })
				what = fmt.Sprintf("run until %v", at)
			default:
				at := randomInstant(r, a)
				both(func(w *world) { w.sim.RunBeforeTick(at.UnixNano()) })
				what = fmt.Sprintf("run before %v", at)
			}
			if d := diff(a, o); d != "" {
				t.Fatalf("seed %d, call %d (%s): %s", seed, call, what, d)
			}
		}
	}
}

// A sampler watching one job with no other event on the clock reaches
// the job's end in one run-ahead: the loop that waits on the job (as
// the controller's WaitFor does) fires two events, the sampler's and
// the job's end, where the oracle fires one per sample — and the
// samples are the oracle's.
func TestSamplerRunsAheadToTheJobsEnd(t *testing.T) {
	end := simclock.Epoch.Add(20*time.Minute + 1500*time.Millisecond)
	steps := make([]int, 2)
	var worlds [2]*world
	for i, oracle := range []bool{false, true} {
		w := newWorld(oracle)
		w.apply(op{kind: opStartJob, cfg: perfmodel.BestConfig()})
		id := w.arm(end, op{kind: opEndJob})
		w.apply(op{kind: opStart, interval: 3 * time.Second})
		for !w.fired[id] {
			w.sim.Step()
			steps[i]++
		}
		w.apply(op{kind: opStop})
		worlds[i] = w
	}
	if steps[0] > 2 {
		t.Fatalf("the run-ahead sampler took %d events to reach the job's end, want at most 2", steps[0])
	}
	if want := 20*60/3 + 2; worlds[0].trace.Len() != want {
		t.Fatalf("%d samples, want %d", worlds[0].trace.Len(), want)
	}
	if d := diff(worlds[0], worlds[1]); d != "" {
		t.Fatalf("after %d steps (oracle %d): %s", steps[0], steps[1], d)
	}
}

// BenchmarkSamplerRunAhead measures a sampler segment over a running
// job — Start, a 1,000-sample run, Stop — into a reused trace. The
// alloc-check make target pins it at 0 allocs/op.
func BenchmarkSamplerRunAhead(b *testing.B) {
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	conn, _ := NewBMC(node).Open(true)
	if _, err := node.StartJob(perfmodel.StandardConfig()); err != nil {
		b.Fatal(err)
	}
	const interval = 2 * time.Second
	tr := &telemetry.Trace{Samples: make([]telemetry.Sample, 0, 1024)}
	s := NewSampler(sim, conn, node, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Samples = tr.Samples[:0]
		s.Start(interval)
		sim.RunFor(999 * interval)
		s.Stop()
	}
	b.StopTimer()
	if tr.Len() != 1001 {
		b.Fatalf("a segment took %d samples, want 1,001", tr.Len())
	}
}
