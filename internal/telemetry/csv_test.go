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
// layout; Trace.CSV must match it byte for byte.
func referenceWriteCSV(tr *Trace, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seconds", "system_w", "cpu_w", "cpu_temp_c", "freq_khz"}); err != nil {
		return err
	}
	var t0 time.Time
	if len(tr.Samples) > 0 {
		t0 = tr.Samples[0].Time
	}
	for _, s := range tr.Samples {
		rec := []string{
			strconv.FormatFloat(s.Time.Sub(t0).Seconds(), 'f', 1, 64),
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
	return tr.CSV(), w.Bytes()
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
			Time: at, SystemW: randomFloat(rng), CPUW: randomFloat(rng), CPUTempC: randomFloat(rng),
			FreqKHz: rng.Intn(5_000_000) - 1000,
		})
		switch rng.Intn(3) {
		case 0:
			at = at.Add(time.Duration(rng.Intn(4)) * time.Second)
		case 1: // multiples of 50 ms land on the ties of the one-decimal seconds column
			at = at.Add(time.Duration(rng.Intn(100)) * 50 * time.Millisecond)
		default:
			at = at.Add(time.Duration(rng.Int63n(int64(time.Hour))))
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
			tr := &Trace{Samples: []Sample{{Time: epoch, SystemW: v, CPUW: -v, CPUTempC: v / 3, FreqKHz: -1}}}
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
}

// Reading a written trace and writing it again must reproduce the
// file: ReadCSV accepts everything Trace.CSV emits (NaN and ±Inf
// included) and loses nothing the layout keeps.
func TestWriteCSVReadCSVRoundTripIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(138))
	for i := 0; i < 100; i++ {
		tr := randomTrace(rng, 1+rng.Intn(40))
		first, _ := encodeBoth(t, tr)
		back, err := ReadCSV(bytes.NewReader(first), tr.Name, epoch)
		if err != nil {
			t.Fatalf("trace %d: ReadCSV rejected Trace.CSV output: %v\n%s", i, err, first)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("trace %d: %d samples read back, %d written", i, back.Len(), tr.Len())
		}
		if second := back.CSV(); !bytes.Equal(first, second) {
			t.Fatalf("trace %d changed over a round trip:\nfirst  %q\nsecond %q", i, first, second)
		}
	}
}
