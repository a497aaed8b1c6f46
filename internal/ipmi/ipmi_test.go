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
	list := conn.SDRList()
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
		want := []Reading{
			{SensorTotalPower, quantize(node.Calibration().SystemPowerW(node.CPUPowerW(), node.CPUTempC()), 2), "Watts"},
			{SensorCPUPower, quantize(node.CPUPowerW(), 2), "Watts"},
			{SensorCPUTemp, quantize(node.CPUTempC(), 1), "degrees C"},
		}
		list := conn.SDRList()
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
	wall := meter.Total()
	diffPct := math.Abs(ipmiRead.Value-wall) / ipmiRead.Value * 100
	// Quantisation of the IPMI reading adds up to ~±0.5 % around the
	// PSU-efficiency gap at a single instant.
	if math.Abs(diffPct-paperdata.Eq1PercentDiff) > 0.55 {
		t.Fatalf("IPMI vs wattmeter = %.2f%%, paper's Eq.1 says 5.96%%", diffPct)
	}
	p1, p2 := meter.Read()
	if p1 >= p2 {
		t.Fatalf("PSU1 %.1f ≥ PSU2 %.1f; the paper's PSU1 drew less", p1, p2)
	}
}
