// Package telemetry holds time-series power/thermal samples collected
// while benchmarks run, and the aggregations the paper reports: the
// power-over-time traces of Figure 15 and the averages, kilojoules and
// runtimes of Table 2.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// Sample is one telemetry observation — what Chronus records from the
// BMC every 2–3 seconds during a benchmark (paper §3.1.2, §5.2). Its
// instant is a simulated-clock tick, not a time.Time: a sample holds no
// pointer, so a trace's slab is plain memory the garbage collector
// never scans, and every interval is an integer difference.
type Sample struct {
	Tick     int64 // nanoseconds since the Unix epoch (simclock.Sim.NowTick)
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
	if n := len(tr.Samples); n > 0 && s.Tick < tr.Samples[n-1].Tick {
		return fmt.Errorf("telemetry: sample at tick %d before previous %d", s.Tick, tr.Samples[n-1].Tick)
	}
	tr.Samples = append(grow(tr.Samples, 1), s)
	return nil
}

// grow returns s with room for n more elements. A reallocation at
// least doubles the capacity, where append adds only a quarter once a
// slice is large: a sweep hands one sample slab and one CSV buffer on
// from trace to trace, and its traces lengthen in small steps (the
// paper sweep sets a new longest trace 63 times), so doubling keeps the
// copies to a few per sweep.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, max(len(s)+n, 2*cap(s))), s...)
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.Samples) }

// Duration is the time span covered by the trace.
func (tr *Trace) Duration() time.Duration {
	if len(tr.Samples) < 2 {
		return 0
	}
	return time.Duration(tr.Samples[len(tr.Samples)-1].Tick - tr.Samples[0].Tick)
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
		dt := time.Duration(tr.Samples[i].Tick - tr.Samples[i-1].Tick).Seconds()
		agg.SystemKJ += (tr.Samples[i].SystemW + tr.Samples[i-1].SystemW) / 2 * dt / 1000
		agg.CPUKJ += (tr.Samples[i].CPUW + tr.Samples[i-1].CPUW) / 2 * dt / 1000
	}
	return agg, nil
}

// AppendCSV appends the trace, encoded in the layout Chronus's CSV
// repository uses, to dst and returns the extended buffer: one row per
// sample, seconds-from-start first. No field this layout produces needs
// CSV quoting, so rows go straight into the buffer; a caller that
// hands in the buffer of an earlier trace (truncated to zero length)
// reuses its capacity. The result shares nothing with the trace.
//
// Each row reserves rowRoom bytes of capacity once and its fields are
// written by index into it: a whole-number reading from a digit table,
// the frequency (constant over a run) from its text formatted when it
// last changed. Anything outside the tables goes through
// strconv.AppendFloat, which reserves the room again.
func (tr *Trace) AppendCSV(dst []byte) []byte {
	const header = "seconds,system_w,cpu_w,cpu_temp_c,freq_khz\n"
	const typicalRow = len("1234.0,123.00,123.00,45.00,2200000\n")
	// The trailing rowRoom keeps the last rows' reservations from
	// reallocating while rows stay typical.
	b := grow(dst, len(header)+typicalRow*len(tr.Samples)+rowRoom)
	b = append(b, header...)
	var t0 int64
	if len(tr.Samples) > 0 {
		t0 = tr.Samples[0].Tick
	}
	var freqBuf [24]byte // the freq_khz field and its newline
	var freq []byte
	for i := range tr.Samples {
		s := &tr.Samples[i]
		if i == 0 || s.FreqKHz != tr.Samples[i-1].FreqKHz {
			freq = append(strconv.AppendInt(freqBuf[:0], int64(s.FreqKHz), 10), '\n')
		}
		b = grow(b, rowRoom)
		b = appendSeconds(b, s.Tick-t0)
		b = appendFixed(b, s.SystemW)
		b = appendFixed(b, s.CPUW)
		b = appendFixed(b, s.CPUTempC)
		b = append(b, freq...)
	}
	return b
}

// rowRoom bounds what one row's table-written fields take: 11 bytes of
// seconds, three 8-byte watt stores of which the row keeps up to 7
// bytes each, and a frequency of up to 20 characters and its newline.
const rowRoom = 64

// centiText[v] is the whole number v formatted with two decimals and
// the field's comma, as strconv.AppendFloat would write it, padded to
// 8 bytes; its last byte holds the text's length. appendFixed stores
// all 8 bytes at once and keeps the length.
var centiText = func() (t [1000][8]byte) {
	for v := range t {
		n := copy(t[v][:], strconv.Itoa(v)+".00,")
		t[v][7] = byte(n)
	}
	return t
}()

// digitPairs holds "00" to "99" back to back, the whole seconds'
// digits two at a time.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendFixed appends v with two decimals and a comma, as
// strconv.AppendFloat(b, v, 'f', 2, 64) would. BMC readings are whole
// watts and degrees, which strconv formats through its
// arbitrary-precision path; a whole number from 0 to 999 is a table
// entry instead. Negative zero is whole but keeps its sign, so it
// takes the strconv branch with NaN, the infinities and fractions.
// b needs 8 bytes of spare capacity.
func appendFixed(b []byte, v float64) []byte {
	if v >= 0 && v < float64(len(centiText)) {
		if iv := int(v); float64(iv) == v && !math.Signbit(v) {
			n := len(b)
			e := &centiText[iv]
			*(*[8]byte)(b[n : n+8]) = *e
			return b[:n+int(e[7])]
		}
	}
	return appendFloat(b, v, 2)
}

// appendSeconds appends the offset of d ticks with one decimal and a
// comma, as strconv.AppendFloat(b, time.Duration(d).Seconds(), 'f', 1,
// 64) would. A whole number of seconds below 10⁸ (a sampler's 3 s
// steps) converts exactly, so its digits come two at a time from
// digitPairs; a negative or fractional offset (a run's last sample
// rarely lands on a whole second) takes the strconv branch. b needs
// 11 bytes of spare capacity.
func appendSeconds(b []byte, d int64) []byte {
	const second = int64(time.Second)
	if d < 0 || d%second != 0 || d >= 1e8*second {
		return appendFloat(b, time.Duration(d).Seconds(), 1)
	}
	u := uint(d / second)
	digits := 1
	for p := uint(10); u >= p; p *= 10 {
		digits++
	}
	n := len(b) + digits
	b = append(b[:n], ".0,"...)
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		n -= 2
		b[n], b[n+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[n-2], b[n-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[n-1] = byte('0' + u)
	}
	return b
}

// appendFloat is the general branch of appendFixed and appendSeconds:
// v through strconv.AppendFloat with the verb and precision of the
// encoding/csv encoder AppendCSV replaced, the comma, and the row's
// reserved room again.
func appendFloat(b []byte, v float64, prec int) []byte {
	return grow(append(strconv.AppendFloat(b, v, 'f', prec, 64), ','), rowRoom)
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
