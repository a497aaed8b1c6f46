package telemetry

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// referenceWriteCSV is the trace encoder as it was before the append
// encoder: encoding/csv over strconv.FormatFloat fields. It defines the
// layout; Trace.AppendCSV must match it byte for byte.
func referenceWriteCSV(tr *Trace, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seconds", "system_w", "cpu_w", "cpu_temp_c", "freq_khz"}); err != nil {
		return err
	}
	var t0 int64
	if len(tr.Samples) > 0 {
		t0 = tr.Samples[0].Tick
	}
	for _, s := range tr.Samples {
		rec := []string{
			strconv.FormatFloat(time.Duration(s.Tick-t0).Seconds(), 'f', 1, 64),
			strconv.FormatFloat(s.SystemW, 'f', 2, 64),
			strconv.FormatFloat(s.CPUW, 'f', 2, 64),
			strconv.FormatFloat(s.CPUTempC, 'f', 2, 64),
			strconv.Itoa(s.FreqKHz),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func encodeBoth(t *testing.T, tr *Trace) (got, want []byte) {
	t.Helper()
	var w bytes.Buffer
	if err := referenceWriteCSV(tr, &w); err != nil {
		t.Fatal(err)
	}
	return tr.AppendCSV(nil), w.Bytes()
}

// edgeFloats are the values where a hand-rolled fixed-point formatter
// goes wrong: signed zero, values that round to zero, decimal ties,
// the int64 and 2⁵³ boundaries, and the non-finite ones.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 250, -250, 0.004, -0.004, 0.005, -0.005, 0.015, 1.005, 2.675,
	0.125, 0.375, 0.05, 0.25, 99.995, 123456789.99, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), -(1<<53 - 1),
	1e15, 1e18, math.MaxInt64, -math.MaxInt64, 9.3e18, 1e19, 1e300, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1: // whole watts, the BMC's usual reading
		return float64(rng.Intn(2000) - 100)
	case 2: // a tie or near-tie at the third decimal
		return float64(rng.Intn(100000))/1000 + 0.0005*float64(rng.Intn(3))
	case 3:
		return math.Float64frombits(rng.Uint64())
	default:
		return rng.NormFloat64() * 300
	}
}

func randomTrace(rng *rand.Rand, n int) *Trace {
	tr := &Trace{Name: "random"}
	at := epoch
	for i := 0; i < n; i++ {
		tr.Samples = append(tr.Samples, Sample{
			Tick: at, SystemW: randomFloat(rng), CPUW: randomFloat(rng), CPUTempC: randomFloat(rng),
			FreqKHz: rng.Intn(5_000_000) - 1000,
		})
		switch rng.Intn(3) {
		case 0:
			at += int64(time.Duration(rng.Intn(4)) * time.Second)
		case 1: // multiples of 50 ms land on the ties of the one-decimal seconds column
			at += int64(time.Duration(rng.Intn(100)) * 50 * time.Millisecond)
		default:
			at += rng.Int63n(int64(time.Hour))
		}
	}
	return tr
}

func TestWriteCSVMatchesReferenceEncoder(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		got, want := encodeBoth(t, &Trace{})
		if !bytes.Equal(got, want) {
			t.Fatalf("empty trace:\n got %q\nwant %q", got, want)
		}
	})
	t.Run("edges", func(t *testing.T) {
		for _, v := range edgeFloats {
			tr := &Trace{Samples: []Sample{{Tick: epoch, SystemW: v, CPUW: -v, CPUTempC: v / 3, FreqKHz: -1}}}
			got, want := encodeBoth(t, tr)
			if !bytes.Equal(got, want) {
				t.Errorf("value %v:\n got %q\nwant %q", v, got, want)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20230510))
		for i := 0; i < 300; i++ {
			tr := randomTrace(rng, rng.Intn(40))
			got, want := encodeBoth(t, tr)
			if !bytes.Equal(got, want) {
				t.Fatalf("trace %d (%d samples):\n got %q\nwant %q", i, tr.Len(), got, want)
			}
		}
	})
	t.Run("appends", func(t *testing.T) {
		// A buffer handed back by an earlier, longer trace: the result
		// is the prefix plus exactly this trace's encoding, whatever the
		// spare capacity still holds.
		rng := rand.New(rand.NewSource(7))
		buf := randomTrace(rng, 40).AppendCSV(nil)
		short := randomTrace(rng, 5)
		_, want := encodeBoth(t, short)
		got := short.AppendCSV(append(buf[:0], "prefix"...))
		if &got[0] != &buf[0] {
			t.Fatal("AppendCSV reallocated a buffer with room to spare")
		}
		if string(got) != "prefix"+string(want) {
			t.Fatalf("reused buffer:\n got %q\nwant prefix + %q", got, want)
		}
	})
}

// FuzzAppendCSV holds AppendCSV to the reference encoder on a random
// trace followed by a sweep-shaped tail: whole-watt rows at a steady
// 3 s and one frequency, then a row carrying v in every float column
// at frequency freq, then a last row gap ticks later back at the
// sweep's frequency. Both a fresh buffer and one handed back by a
// longer trace must get the reference bytes.
func FuzzAppendCSV(f *testing.F) {
	f.Add(int64(1), uint8(0), math.Copysign(0, -1), int64(3*time.Second), 2200000)
	f.Add(int64(2), uint8(5), 999.0, int64(3*time.Second), 2200000)
	f.Add(int64(3), uint8(5), 1000.0, int64(3*time.Second), 2200000)
	f.Add(int64(4), uint8(2), 250.0, int64(1234567891), 2200000)
	f.Add(int64(5), uint8(3), 312.0, int64(3*time.Second), 1500000)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, v float64, gap int64, freq int) {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, int(n%32))
		at := epoch
		if k := tr.Len(); k > 0 {
			at = tr.Samples[k-1].Tick
		}
		const sweepKHz = 2200000
		for i := 0; i < 4; i++ {
			at += int64(3 * time.Second)
			tr.Samples = append(tr.Samples, Sample{Tick: at, SystemW: float64(rng.Intn(1100)),
				CPUW: float64(rng.Intn(300)), CPUTempC: float64(rng.Intn(90)), FreqKHz: sweepKHz})
		}
		at += int64(3 * time.Second)
		tr.Samples = append(tr.Samples, Sample{Tick: at, SystemW: v, CPUW: v, CPUTempC: v, FreqKHz: freq})
		tr.Samples = append(tr.Samples, Sample{Tick: at + gap, SystemW: 300, CPUW: 150, CPUTempC: 55, FreqKHz: sweepKHz})

		got, want := encodeBoth(t, tr)
		if !bytes.Equal(got, want) {
			t.Fatalf("fresh buffer:\n got %q\nwant %q", got, want)
		}
		buf := randomTrace(rng, 40).AppendCSV(nil)
		if got := tr.AppendCSV(buf[:0]); !bytes.Equal(got, want) {
			t.Fatalf("reused buffer:\n got %q\nwant %q", got, want)
		}
	})
}

// BenchmarkTraceAppendCSV encodes a 900-sample trace, 45 minutes of
// the sampler's 3 s interval with whole-watt readings at one
// frequency, into a reused buffer, the way the sweep encodes each
// configuration's trace. make alloc-check holds it at 0 allocs/op.
func BenchmarkTraceAppendCSV(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	tr := &Trace{Name: "sweep"}
	for i := 0; i < 900; i++ {
		tr.Samples = append(tr.Samples, Sample{
			Tick:    epoch + int64(time.Duration(i)*3*time.Second),
			SystemW: float64(200 + 2*rng.Intn(100)), CPUW: float64(90 + rng.Intn(80)),
			CPUTempC: float64(40 + rng.Intn(30)), FreqKHz: 2200000,
		})
	}
	buf := tr.AppendCSV(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.AppendCSV(buf[:0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/row")
}
