package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// options are the settings of one workload run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	dataDir  string // deployments and repositories are created under it
	outDir   string // span files and result files
}

// closedLoop is one workload: a closed loop with one client: the next operation is
// issued only after the previous one returned.
type closedLoop interface {
	// plan says how the run is divided.
	plan() plan
	// setTracer switches bench-side spans on (non-nil) or off.
	setTracer(*tracer)
	// setup does one complete untimed preparation from the seed, warm-up
	// included. It runs once per segment and each call's wall time is
	// one setup_s sample.
	setup(seg int) error
	// batch issues one timed batch and returns the operations in it.
	batch() (ops int, err error)
	// between does untimed housekeeping after each timed batch.
	between() error
	// finish tears down, runs the end-of-run checks and reports.
	finish() outcome
}

// plan divides a run. Batches are counted, not clocked: the number per
// segment follows from --seconds and the batch's nominal length alone,
// so the same --seconds and seed issue exactly the same operations on
// any host and a faster program is not handed more work (and, where the
// program retains state per operation, more memory) than a slower one.
type plan struct {
	segments     int     // set-ups per run; timed batches are split evenly between them
	batchSeconds float64 // nominal wall time of one batch, as measured on the sandbox
	minBatches   int     // timed batches per segment at least, however short the run
}

// batches is the number of timed batches in a segment of the given length.
func (p plan) batches(perSegment time.Duration) int {
	n := int(perSegment.Seconds()/p.batchSeconds + 0.5)
	if n < p.minBatches {
		n = p.minBatches
	}
	return n
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type outcome struct {
	attempted, failed int64
	simEnergyKJ       float64
	digest            string
	checks            []check
}

// common is the state every workload shares.
type common struct {
	opt               options
	tr                *tracer
	attempted, failed int64
	checks            []check
}

func (c *common) setTracer(t *tracer) { c.tr = t }

func (c *common) between() error { return nil }

// fail counts one failed operation and keeps the first reason per kind.
func (c *common) fail(kind, detail string) { c.failN(kind, 1, detail) }

func (c *common) failN(kind string, n int, detail string) {
	c.failed += int64(n)
	for _, k := range c.checks {
		if k.Name == kind {
			return
		}
	}
	c.checks = append(c.checks, check{Name: kind, Detail: detail})
}

// newCheck is a passed check, or a failed one with its reason.
func newCheck(name string, ok bool, format string, args ...any) check {
	k := check{Name: name, OK: ok}
	if !ok {
		k.Detail = fmt.Sprintf(format, args...)
	}
	return k
}

// verify records an end-of-run check.
func (c *common) verify(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, newCheck(name, ok, format, args...))
}

// sample is one timed batch.
type sample struct {
	seg     int
	ops     int
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	traced  bool
}

func (s sample) usPerOp() float64 { return float64(s.wall.Nanoseconds()) / 1e3 / float64(s.ops) }

// timings is what the batch loop measured from outside the program.
type timings struct {
	setups    []float64 // seconds, one per segment
	samples   []sample
	gcCycles  uint32
	gcPauseNS uint64
	cpu       time.Duration
}

// runSegments drives the workload: per segment one set-up, then the
// plan's number of timed batches. A host so slow that a segment has
// used twice its share of the clock ends the segment early, once
// minBatches ran, so that a run cannot outlast the driver's patience.
// Heap statistics are read between batches, never inside one. With a
// tracer, every second segment records spans on it.
func runSegments(ctx context.Context, w closedLoop, pl plan, perSegment time.Duration, tracer *tracer) (timings, error) {
	var tm timings
	var m0, m1 runtime.MemStats
	for seg := 0; seg < pl.segments; seg++ {
		tr := tracer
		if seg%2 == 0 {
			tr = nil
		}
		w.setTracer(tr)
		t := time.Now()
		if err := w.setup(seg); err != nil {
			return tm, fmt.Errorf("setup %d: %w", seg, err)
		}
		tm.setups = append(tm.setups, time.Since(t).Seconds())
		runtime.GC() // every segment starts its timed batches from a collected heap

		giveUp := time.Now().Add(2 * perSegment)
		for b, n := 0, pl.batches(perSegment); b < n && (b < pl.minBatches || time.Now().Before(giveUp)); b++ {
			runtime.ReadMemStats(&m0)
			_, cpu0 := rusage()
			t := time.Now()
			ops, err := w.batch()
			wall := time.Since(t)
			_, cpu1 := rusage()
			runtime.ReadMemStats(&m1)
			if err == nil {
				err = w.between()
			}
			if err == nil {
				err = ctx.Err()
			}
			if err != nil {
				return tm, fmt.Errorf("segment %d batch %d: %w", seg, b, err)
			}
			tm.samples = append(tm.samples, sample{seg: seg, ops: ops, wall: wall,
				mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc, traced: tr != nil})
			tm.gcCycles += m1.NumGC - m0.NumGC
			tm.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
			tm.cpu += cpu1 - cpu0
		}
	}
	return tm, nil
}

func (tm timings) usPerOp(traced bool) []float64 {
	var out []float64
	for _, s := range tm.samples {
		if s.traced == traced {
			out = append(out, s.usPerOp())
		}
	}
	return out
}

func (tm timings) totals() (ops int64, mallocs, bytes uint64) {
	for _, s := range tm.samples {
		ops += int64(s.ops)
		mallocs += s.mallocs
		bytes += s.bytes
	}
	return
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer list, in print order, exactly the metrics
// BENCHMARK.json declares; bench_test.go holds the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p10_us", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
	{"sim_energy_kj", "kJ"},
}

// result is everything one workload run reports. The contract line is
// its correct/attempted/failed/metrics subset.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Quick     bool                   `json:"quick,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Batches   int                    `json:"timed_batches"`
	Setups    int                    `json:"setup_samples"`
	SimDigest string                 `json:"sim_digest"`
	Checks    []check                `json:"checks"`
	Env       envStamp               `json:"env"`
	CanaryMS  [2]float64             `json:"canary_ms"` // before and after the workload
	Noisy     bool                   `json:"noisy"`
	SpanFile  string                 `json:"span_file,omitempty"`
	// SegmentP50US is the batch median of each segment in run order: a
	// run whose segments disagree was disturbed part of the way through.
	SegmentP50US []float64 `json:"segment_p50_us"`
	defs         []metricDef
	sampleCounts map[string]int
}

// runWorkload measures one workload in this process.
func runWorkload(ctx context.Context, opt options) (*result, error) {
	w, err := newWorkload(opt)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, Quick: opt.quick,
		Metrics: map[string]metricValue{}, sampleCounts: map[string]int{}, Env: stampEnv(opt.dataDir)}
	res.CanaryMS[0] = canary().Seconds() * 1e3

	pl := w.plan()
	perSegment := time.Duration(opt.seconds / float64(pl.segments) * float64(time.Second))
	var tr *tracer
	if opt.trace {
		// Traced and untraced segments alternate inside one process at a
		// quarter of the batches each, so the overhead figure compares
		// like with like; the other half of the clock goes to the probes.
		tr = newTracer()
		pl.segments = 4
		pl.minBatches = (pl.minBatches + 3) / 4
		perSegment = time.Duration(opt.seconds / 8 * float64(time.Second))
	}
	tm, err := runSegments(ctx, w, pl, perSegment, tr)
	if err != nil {
		w.finish()
		return nil, err
	}
	out := w.finish()
	res.Attempted, res.Failed = out.attempted, out.failed
	res.SimDigest = out.digest
	res.Checks = out.checks
	res.Batches, res.Setups = len(tm.samples), len(tm.setups)
	for seg := range tm.setups {
		var us []float64
		for _, s := range tm.samples {
			if s.seg == seg {
				us = append(us, s.usPerOp())
			}
		}
		res.SegmentP50US = append(res.SegmentP50US, median(us))
	}

	ops, mallocs, bytes := tm.totals()
	if !opt.trace {
		res.defs = endToEnd
		us := tm.usPerOp(false)
		rss, _ := rusage()
		res.set("setup_s", median(tm.setups), len(tm.setups))
		res.set("op_p50_us", median(us), len(us))
		res.set("op_p10_us", quantile(us, 0.10), len(us))
		res.set("allocs_per_op", float64(mallocs)/float64(ops), len(us))
		res.set("alloc_bytes_per_op", float64(bytes)/float64(ops), len(us))
		res.set("peak_rss_mb", rss, 1)
		res.set("sim_energy_kj", out.simEnergyKJ, int(out.attempted))
	} else {
		res.defs = perLayer
		w.setTracer(nil)
		if err := runProbes(ctx, opt, tr, res); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		plain, traced := tm.usPerOp(false), tm.usPerOp(true)
		res.set("runtime.gc_cycles_per_mop", float64(tm.gcCycles)/float64(ops)*1e6, len(tm.samples))
		res.set("runtime.gc_pause_ms", float64(tm.gcPauseNS)/1e6, len(tm.samples))
		res.set("runtime.cpu_us_per_op", float64(tm.cpu.Nanoseconds())/1e3/float64(ops), len(tm.samples))
		res.set("bench.trace_overhead_frac", median(traced)/median(plain)-1, len(traced))
		res.SpanFile = filepath.Join(opt.outDir, "spans-"+opt.workload+".json") // one per workload, overwritten
		if err := tr.write(res.SpanFile); err != nil {
			return nil, err
		}
	}

	res.CanaryMS[1] = canary().Seconds() * 1e3
	lo, hi := math.Min(res.CanaryMS[0], res.CanaryMS[1]), math.Max(res.CanaryMS[0], res.CanaryMS[1])
	res.Noisy = hi > 1.10*lo

	res.Correct = res.Failed == 0
	for _, k := range res.Checks {
		res.Correct = res.Correct && k.OK
	}
	for _, d := range res.defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return res, nil
}

func (r *result) set(name string, v float64, samples int) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			r.sampleCounts[name] = samples
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// print writes every metric by name with its unit and sample count,
// the checks, the detail line the parent process collects, and last
// the one-line JSON object the benchmark contract asks for.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d timed batches, %d set-ups, %d ops attempted, %d failed\n",
		r.Workload, r.Seed, r.Trace, r.Batches, r.Setups, r.Attempted, r.Failed)
	e := r.Env
	fmt.Fprintf(w, "env      rev %s %s GOMAXPROCS %d nproc %d cpu %q data-dir %s canary %.2f/%.2f ms noisy %v\n",
		e.Revision, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.DataDirFS, r.CanaryMS[0], r.CanaryMS[1], r.Noisy)
	for _, d := range r.defs {
		fmt.Fprintf(w, "metric   %s %s %.6g %s n=%d\n", r.Workload, d.name, r.Metrics[d.name].Value, d.unit, r.sampleCounts[d.name])
	}
	for _, k := range r.Checks {
		verdict := "ok"
		if !k.OK {
			verdict = "FAILED " + k.Detail
		}
		fmt.Fprintf(w, "check    %s %s %s\n", r.Workload, k.Name, verdict)
	}
	fmt.Fprintf(w, "digest   %s %s\n", r.Workload, r.SimDigest)
	detail, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "detail   %s\n", detail)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
