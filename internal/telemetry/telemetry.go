// Package telemetry holds time-series power/thermal samples collected
// while benchmarks run, and the aggregations the paper reports: the
// power-over-time traces of Figure 15 and the averages, kilojoules and
// runtimes of Table 2.
package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// Sample is one telemetry observation — what Chronus records from the
// BMC every 2–3 seconds during a benchmark (paper §3.1.2, §5.2).
type Sample struct {
	Time     time.Time
	SystemW  float64
	CPUW     float64
	CPUTempC float64
	FreqKHz  int
}

// Trace is an ordered series of samples for one run.
type Trace struct {
	Name    string
	Samples []Sample
}

// Append adds a sample. Samples must be appended in time order.
func (tr *Trace) Append(s Sample) error {
	if n := len(tr.Samples); n > 0 && s.Time.Before(tr.Samples[n-1].Time) {
		return fmt.Errorf("telemetry: sample at %v before previous %v", s.Time, tr.Samples[n-1].Time)
	}
	tr.Samples = append(tr.Samples, s)
	return nil
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.Samples) }

// Duration is the time span covered by the trace.
func (tr *Trace) Duration() time.Duration {
	if len(tr.Samples) < 2 {
		return 0
	}
	return tr.Samples[len(tr.Samples)-1].Time.Sub(tr.Samples[0].Time)
}

// Aggregate summarises a trace the way Table 2 does.
type Aggregate struct {
	Name        string
	AvgSystemW  float64
	AvgCPUW     float64
	SystemKJ    float64
	CPUKJ       float64
	AvgCPUTempC float64
	Runtime     time.Duration
}

// Aggregate computes Table 2-style statistics. Energy integrates
// power over the sample intervals (trapezoidal rule). It returns an
// error when the trace has fewer than two samples, since no interval
// exists to integrate.
func (tr *Trace) Aggregate() (Aggregate, error) {
	if len(tr.Samples) < 2 {
		return Aggregate{}, fmt.Errorf("telemetry: trace %q has %d samples, need ≥2", tr.Name, len(tr.Samples))
	}
	var agg Aggregate
	agg.Name = tr.Name
	agg.Runtime = tr.Duration()

	var sysSum, cpuSum, tempSum float64
	for _, s := range tr.Samples {
		sysSum += s.SystemW
		cpuSum += s.CPUW
		tempSum += s.CPUTempC
	}
	n := float64(len(tr.Samples))
	agg.AvgSystemW = sysSum / n
	agg.AvgCPUW = cpuSum / n
	agg.AvgCPUTempC = tempSum / n

	for i := 1; i < len(tr.Samples); i++ {
		dt := tr.Samples[i].Time.Sub(tr.Samples[i-1].Time).Seconds()
		agg.SystemKJ += (tr.Samples[i].SystemW + tr.Samples[i-1].SystemW) / 2 * dt / 1000
		agg.CPUKJ += (tr.Samples[i].CPUW + tr.Samples[i-1].CPUW) / 2 * dt / 1000
	}
	return agg, nil
}

// CSV encodes the trace in the layout Chronus's CSV repository uses:
// one row per sample, seconds-from-start first. No field this layout
// produces needs CSV quoting, so rows are appended to one pre-sized
// buffer directly; the result shares nothing with the trace.
func (tr *Trace) CSV() []byte {
	const header = "seconds,system_w,cpu_w,cpu_temp_c,freq_khz\n"
	const typicalRow = len("1234.0,123.00,123.00,45.00,2200000\n")
	b := make([]byte, 0, len(header)+typicalRow*len(tr.Samples))
	b = append(b, header...)
	var t0 time.Time
	if len(tr.Samples) > 0 {
		t0 = tr.Samples[0].Time
	}
	for _, s := range tr.Samples {
		b = appendFixed(b, s.Time.Sub(t0).Seconds(), 1)
		b = append(b, ',')
		b = appendFixed(b, s.SystemW, 2)
		b = append(b, ',')
		b = appendFixed(b, s.CPUW, 2)
		b = append(b, ',')
		b = appendFixed(b, s.CPUTempC, 2)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.FreqKHz), 10)
		b = append(b, '\n')
	}
	return b
}

// appendFixed appends v as strconv.AppendFloat(b, v, 'f', prec, 64)
// would, for prec ≤ 2. BMC readings are whole watts, degrees and
// seconds, and strconv formats those through its arbitrary-precision
// path; a whole number below 2⁵³ is its integer digits and prec zeros.
func appendFixed(b []byte, v float64, prec int) []byte {
	const exact = 1 << 53 // every float64 integer below this converts to int64 and back unchanged
	if iv := int64(v); v > -exact && v < exact && float64(iv) == v && (iv != 0 || !math.Signbit(v)) {
		b = strconv.AppendInt(b, iv, 10)
		return append(append(b, '.'), "00"[:prec]...)
	}
	return strconv.AppendFloat(b, v, 'f', prec, 64)
}

// ReadCSV parses a trace encoded by CSV. The origin time is
// synthetic (samples are offsets); pass the epoch the offsets should
// hang from.
func ReadCSV(r io.Reader, name string, epoch time.Time) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("telemetry: empty CSV")
	}
	tr := &Trace{Name: name}
	for i, rec := range records[1:] {
		if len(rec) != 5 {
			return nil, fmt.Errorf("telemetry: row %d has %d fields, want 5", i+1, len(rec))
		}
		secs, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: row %d seconds: %w", i+1, err)
		}
		sysW, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: row %d system_w: %w", i+1, err)
		}
		cpuW, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: row %d cpu_w: %w", i+1, err)
		}
		temp, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: row %d cpu_temp_c: %w", i+1, err)
		}
		freq, err := strconv.Atoi(rec[4])
		if err != nil {
			return nil, fmt.Errorf("telemetry: row %d freq_khz: %w", i+1, err)
		}
		if err := tr.Append(Sample{
			Time:    epoch.Add(time.Duration(secs * float64(time.Second))),
			SystemW: sysW, CPUW: cpuW, CPUTempC: temp, FreqKHz: freq,
		}); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// PowerSpread returns max−min system power — the stability measure the
// paper discusses for Figure 15 ("the power consumption of the system
// is more stable in the new configuration").
func (tr *Trace) PowerSpread() float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	lo, hi := tr.Samples[0].SystemW, tr.Samples[0].SystemW
	for _, s := range tr.Samples[1:] {
		if s.SystemW < lo {
			lo = s.SystemW
		}
		if s.SystemW > hi {
			hi = s.SystemW
		}
	}
	return hi - lo
}

// Downsample returns a copy of the trace keeping every nth sample —
// what the figure printers use to keep series readable.
func (tr *Trace) Downsample(n int) *Trace {
	if n <= 1 {
		cp := &Trace{Name: tr.Name, Samples: append([]Sample(nil), tr.Samples...)}
		return cp
	}
	out := &Trace{Name: tr.Name}
	for i := 0; i < len(tr.Samples); i += n {
		out.Samples = append(out.Samples, tr.Samples[i])
	}
	return out
}

// Percentile returns the pth percentile (0–100) of system power over
// the trace using nearest-rank on a sorted copy. It returns 0 for an
// empty trace.
func (tr *Trace) Percentile(p float64) float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	vals := make([]float64, len(tr.Samples))
	for i, s := range tr.Samples {
		vals[i] = s.SystemW
	}
	sort.Float64s(vals)
	if p <= 0 {
		return vals[0]
	}
	if p >= 100 {
		return vals[len(vals)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	return vals[rank]
}
