package ipmi

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/paperdata"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
	"ecosched/internal/telemetry"
)

func newRig(t *testing.T) (*simclock.Sim, *hw.Node, *BMC) {
	t.Helper()
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	return sim, node, NewBMC(node)
}

func TestPermissionModel(t *testing.T) {
	_, _, bmc := newRig(t)
	if _, err := bmc.Open(false); !errors.Is(err, ErrPermission) {
		t.Fatalf("non-root open before chmod: err = %v, want ErrPermission", err)
	}
	if _, err := bmc.Open(true); err != nil {
		t.Fatalf("root open failed: %v", err)
	}
	bmc.ChmodWorldReadable()
	if _, err := bmc.Open(false); err != nil {
		t.Fatalf("non-root open after chmod o+r failed: %v", err)
	}
}

func TestSDRListSensors(t *testing.T) {
	_, _, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	list := conn.readings()
	if len(list) != 3 {
		t.Fatalf("SDR list has %d sensors", len(list))
	}
	names := map[string]bool{}
	for _, r := range list {
		names[r.Name] = true
	}
	for _, want := range []string{SensorTotalPower, SensorCPUPower, SensorCPUTemp} {
		if !names[want] {
			t.Fatalf("sensor %s missing from SDR list", want)
		}
	}
}

// One node evaluation feeds all three sensors; each must read what the
// node's own per-quantity accessor reports at that instant, mid-job
// where the phase oscillation makes the instant matter.
func TestSensorsShareOneEvaluation(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	j, _ := node.StartJob(perfmodel.StandardConfig())
	defer j.End()
	for step := 0; step < 50; step++ {
		sim.RunFor(1700 * time.Millisecond)
		_, cpuW, tempC := node.Sensors()
		want := []Reading{
			{SensorTotalPower, quantize(node.Calibration().SystemPowerW(cpuW, tempC), 2), "Watts"},
			{SensorCPUPower, quantize(cpuW, 2), "Watts"},
			{SensorCPUTemp, quantize(tempC, 1), "degrees C"},
		}
		list := conn.readings()
		for i, w := range want {
			one, err := conn.Read(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			if list[i] != w || one != w {
				t.Fatalf("step %d: SDR row %v, Read %v, node says %v", step, list[i], one, w)
			}
		}
	}
}

func TestUnknownSensor(t *testing.T) {
	_, _, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	if _, err := conn.Read("GPU_Power"); err == nil {
		t.Fatal("unknown sensor read succeeded")
	}
}

func TestReadingString(t *testing.T) {
	r := Reading{SensorTotalPower, 258, "Watts"}
	s := r.String()
	if !strings.Contains(s, "Total_Power") || !strings.Contains(s, "258 Watts") {
		t.Fatalf("Reading.String() = %q, want ipmitool-style row", s)
	}
}

func TestQuantisation(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	j, _ := node.StartJob(perfmodel.StandardConfig())
	defer j.End()
	sim.RunFor(5 * time.Minute)
	r, err := conn.Read(SensorTotalPower)
	if err != nil {
		t.Fatal(err)
	}
	if math.Mod(r.Value, 2) != 0 {
		t.Fatalf("Total_Power %v not quantised to 2 W steps", r.Value)
	}
	temp, _ := conn.Read(SensorCPUTemp)
	if temp.Value != math.Trunc(temp.Value) {
		t.Fatalf("CPU_Temp %v not whole degrees", temp.Value)
	}
}

func TestBMCTracksLoad(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	idle, _ := conn.Read(SensorTotalPower)
	j, _ := node.StartJob(perfmodel.StandardConfig())
	defer j.End()
	sim.RunFor(5 * time.Minute)
	loaded, _ := conn.Read(SensorTotalPower)
	if loaded.Value <= idle.Value {
		t.Fatalf("Total_Power did not rise under load: %v → %v", idle.Value, loaded.Value)
	}
	if loaded.Value < 180 || loaded.Value > 260 {
		t.Fatalf("loaded Total_Power %v W outside the paper's observed range", loaded.Value)
	}
}

func TestSamplerInterval(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	tr := &telemetry.Trace{Name: "run"}
	s := NewSampler(sim, conn, node, tr)
	s.Start(3 * time.Second)
	sim.RunFor(30 * time.Second)
	s.Stop()
	// One immediate + 10 ticks + one closing sample (at t=30 the tick
	// and the stop coincide; both are appended).
	if tr.Len() < 11 || tr.Len() > 13 {
		t.Fatalf("sampler took %d samples over 30 s at 3 s interval", tr.Len())
	}
	if tr.Duration() != 30*time.Second {
		t.Fatalf("trace duration = %v, want 30s", tr.Duration())
	}
}

// Samples land at the start, at every interval, and at the stop.
func TestSamplerTicksAtInterval(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	tr := &telemetry.Trace{}
	s := NewSampler(sim, conn, node, tr)
	s.Start(2 * time.Second)
	sim.RunFor(7 * time.Second)
	s.Stop()
	sim.Run()
	want := []time.Duration{0, 2 * time.Second, 4 * time.Second, 6 * time.Second, 7 * time.Second}
	if tr.Len() != len(want) {
		t.Fatalf("sampled %d times, want %d", tr.Len(), len(want))
	}
	for i, w := range want {
		if got := time.Duration(tr.Samples[i].Tick - simclock.Epoch.UnixNano()); got != w {
			t.Fatalf("sample %d at +%v, want +%v", i, got, w)
		}
	}
}

// A running sampler is one pending event on the clock, and a tick
// re-arms it from the pooled record and the Action bound in NewSampler,
// with no allocation. After Stop, the one tick still queued fires as a
// no-op.
func TestSamplerPendingAndSteadyStateAllocs(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	tr := &telemetry.Trace{Samples: make([]telemetry.Sample, 0, 512)}
	s := NewSampler(sim, conn, node, tr)
	base := sim.Pending()
	s.Start(2 * time.Second)
	if got := sim.Pending() - base; got != 1 {
		t.Fatalf("a running sampler holds %d pending events, want 1", got)
	}
	sim.RunFor(10 * time.Second) // warm the event pool
	allocs := testing.AllocsPerRun(100, func() { sim.RunFor(2 * time.Second) })
	if allocs != 0 {
		t.Fatalf("a tick allocates %.0f times, want 0", allocs)
	}
	if got := sim.Pending() - base; got != 1 {
		t.Fatalf("pending events after %d samples = %d, want 1", tr.Len(), got)
	}
	s.Stop()
	n := tr.Len()
	sim.Run()
	if tr.Len() != n {
		t.Fatalf("sampler appended %d samples after Stop", tr.Len()-n)
	}
}

// A stopped sampler restarts cleanly: the tick queued at Stop is stale
// and never doubles the new run's ticks.
func TestSamplerRestartAfterStop(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	tr := &telemetry.Trace{}
	s := NewSampler(sim, conn, node, tr)
	s.Start(3 * time.Second)
	sim.RunFor(4 * time.Second)
	s.Stop()
	n := tr.Len()
	s.Start(time.Second)
	sim.RunFor(10 * time.Second)
	// One immediate sample plus one a second for 10 s.
	if got := tr.Len() - n; got != 11 {
		t.Fatalf("restarted sampler took %d samples over 10 s at 1 s, want 11", got)
	}
}

func TestSamplerNonPositiveIntervalPanics(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	s := NewSampler(sim, conn, node, &telemetry.Trace{})
	defer func() {
		if recover() == nil {
			t.Fatal("Start(0) did not panic")
		}
	}()
	s.Start(0)
}

func TestSamplerAggregateMatchesNodeEnergy(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	j, _ := node.StartJob(perfmodel.BestConfig())
	defer j.End()
	sim.RunFor(5 * time.Minute) // settle transient
	node.ResetEnergy()
	tr := &telemetry.Trace{Name: "best"}
	s := NewSampler(sim, conn, node, tr)
	s.Start(3 * time.Second)
	sim.RunFor(10 * time.Minute)
	s.Stop()
	sysJ, _ := node.EnergyJ()
	agg, err := tr.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg.SystemKJ-sysJ/1000)/(sysJ/1000) > 0.02 {
		t.Fatalf("sampled energy %.1f kJ vs node accounting %.1f kJ", agg.SystemKJ, sysJ/1000)
	}
}

func TestWattmeterVsIPMI(t *testing.T) {
	sim, node, bmc := newRig(t)
	conn, _ := bmc.Open(true)
	j, _ := node.StartJob(perfmodel.StandardConfig())
	defer j.End()
	sim.RunFor(5 * time.Minute)
	meter := NewWattmeter(node)
	ipmiRead, _ := conn.Read(SensorTotalPower)
	p1, p2 := meter.Read()
	wall := p1 + p2
	diffPct := math.Abs(ipmiRead.Value-wall) / ipmiRead.Value * 100
	// Quantisation of the IPMI reading adds up to ~±0.5 % around the
	// PSU-efficiency gap at a single instant.
	if math.Abs(diffPct-paperdata.Eq1PercentDiff) > 0.55 {
		t.Fatalf("IPMI vs wattmeter = %.2f%%, paper's Eq.1 says 5.96%%", diffPct)
	}
	if p1 >= p2 {
		t.Fatalf("PSU1 %.1f ≥ PSU2 %.1f; the paper's PSU1 drew less", p1, p2)
	}
}
