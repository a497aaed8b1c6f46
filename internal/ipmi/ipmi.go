// Package ipmi simulates the node's Baseboard Management Controller
// and its IPMI interface — the channel the paper samples power through
// (§3.1.2 step 2, §5.1). The BMC exposes SDR sensors (Total_Power,
// CPU_Power, CPU_Temp) with IPMI-realistic quantisation, guarded by
// the /dev/ipmi0 permission model the paper describes in §3.4.2:
// reading requires root unless the device has been made world-readable
// (the paper's `chmod o+r /dev/ipmi0`).
//
// The BMC reads the DC side of the power path; a wattmeter on the PSU
// inputs reads the AC side. The gap between them is the Equation 1
// accuracy experiment.
package ipmi

import (
	"fmt"
	"math"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/simclock"
	"ecosched/internal/telemetry"
)

// Sensor names, matching `ipmitool sdr list` output on the paper's
// Lenovo node (Figure 13 greps for "Total").
const (
	SensorTotalPower = "Total_Power"
	SensorCPUPower   = "CPU_Power"
	SensorCPUTemp    = "CPU_Temp"
)

// Reading is one sensor value, as a row of `ipmitool sdr list`.
type Reading struct {
	Name  string
	Value float64
	Unit  string
}

func (r Reading) String() string {
	return fmt.Sprintf("%-16s | %.0f %s", r.Name, r.Value, r.Unit)
}

// BMC is the management controller of one node.
type BMC struct {
	node          *hw.Node
	worldReadable bool
	// Quantisation steps. IPMI power sensors report in coarse steps
	// (the paper's Total_Power reads a flat 258 W); temperature in
	// whole degrees.
	powerStepW float64
	tempStepC  float64
}

// NewBMC attaches a BMC to a node. By default /dev/ipmi0 is only
// readable by root, as on a stock install.
func NewBMC(node *hw.Node) *BMC {
	return &BMC{node: node, powerStepW: 2, tempStepC: 1}
}

// ChmodWorldReadable performs the paper's `chmod o+r /dev/ipmi0`.
func (b *BMC) ChmodWorldReadable() { b.worldReadable = true }

// Conn is an open IPMI session.
type Conn struct{ bmc *BMC }

// ErrPermission is returned when a non-root user opens /dev/ipmi0
// without the chmod the paper prescribes.
var ErrPermission = fmt.Errorf("ipmi: open /dev/ipmi0: permission denied")

// Open opens the IPMI device. Root always succeeds; other users need
// the device to be world-readable.
func (b *BMC) Open(asRoot bool) (*Conn, error) {
	if !asRoot && !b.worldReadable {
		return nil, ErrPermission
	}
	return &Conn{bmc: b}, nil
}

// values evaluates the node once and returns its three sensors'
// quantised values in SDR order: every value of one call describes the
// same instant of the same power model, and a sampler tick costs one
// evaluation.
func (c *Conn) values() (systemW, cpuW, tempC float64) {
	b := c.bmc
	systemW, cpuW, tempC = b.node.Sensors()
	return quantize(systemW, b.powerStepW), quantize(cpuW, b.powerStepW), quantize(tempC, b.tempStepC)
}

// readings returns the three sensors of one evaluation as SDR rows.
func (c *Conn) readings() [3]Reading {
	systemW, cpuW, tempC := c.values()
	return [3]Reading{
		{SensorTotalPower, systemW, "Watts"},
		{SensorCPUPower, cpuW, "Watts"},
		{SensorCPUTemp, tempC, "degrees C"},
	}
}

// Read returns a single sensor reading by name.
func (c *Conn) Read(name string) (Reading, error) {
	for _, r := range c.readings() {
		if r.Name == name {
			return r, nil
		}
	}
	return Reading{}, fmt.Errorf("ipmi: unknown sensor %q", name)
}

func quantize(v, step float64) float64 {
	if step <= 0 {
		return v
	}
	return math.Round(v/step) * step
}

// Sampler polls the BMC at a fixed interval and appends samples to a
// trace — Chronus's System Service integration ("sampling the energy
// usage from the BMC ... at a 2-second interval"). A running sampler is
// one pending event on the simulated clock. Between two events nothing
// changes the node but time, so a tick takes every sample the clock
// lets it reach (simclock.Sim.Horizon) and arms one event for the
// first sample it could not: the samples, and the order of the
// sampler's event against every other, are those of a sampler that
// arms an event per sample.
type Sampler struct {
	sim      *simclock.Sim
	conn     *Conn
	node     *hw.Node
	trace    *telemetry.Trace
	interval time.Duration
	gen      uint64     // bumped by Start and Stop; a tick armed under an older one is stale
	tick     sampleTick // the Action every tick fires, bound once
}

// sampleTick fires a sampler's tick. Clock events cannot be cancelled,
// so Fire drops a tick whose generation a later Start or Stop has
// superseded — the one tick still queued when Stop ran fires as a
// no-op.
type sampleTick struct{ s *Sampler }

func (a *sampleTick) Fire(gen uint64) {
	s := a.s
	if gen != s.gen {
		return
	}
	sim := s.sim
	// No event fires before the horizon, so the governor's frequency
	// holds for the whole run-ahead.
	freq := s.node.CurrentFreqKHz()
	s.sample(sim.NowTick(), freq)
	horizon, step := sim.Horizon(), int64(s.interval)
	next := sim.NowTick() + step
	for ; next <= horizon; next += step {
		sim.SkipToTick(next)
		s.sample(next, freq)
	}
	sim.AtTick(next, a, gen)
}

// NewSampler creates a sampler writing into trace.
func NewSampler(sim *simclock.Sim, conn *Conn, node *hw.Node, trace *telemetry.Trace) *Sampler {
	s := &Sampler{sim: sim, conn: conn, node: node, trace: trace}
	s.tick.s = s
	return s
}

// Start begins sampling every interval, which must be positive. It
// samples once immediately so the trace covers the full window.
func (s *Sampler) Start(interval time.Duration) {
	if interval <= 0 {
		panic("ipmi: non-positive sampling interval")
	}
	s.interval = interval
	s.gen++
	s.sample(s.sim.NowTick(), s.node.CurrentFreqKHz())
	s.sim.AfterAction(interval, &s.tick, s.gen)
}

// Stop halts sampling and takes one final sample to close the window.
func (s *Sampler) Stop() {
	s.gen++
	s.sample(s.sim.NowTick(), s.node.CurrentFreqKHz())
}

// sample appends the BMC's readings at tick, the clock's current
// instant, with the frequency the governor runs.
func (s *Sampler) sample(tick int64, freqKHz int) {
	systemW, cpuW, tempC := s.conn.values()
	// Append never fails here: the simulated clock only moves forward.
	_ = s.trace.Append(telemetry.Sample{
		Tick:     tick,
		SystemW:  systemW,
		CPUW:     cpuW,
		CPUTempC: tempC,
		FreqKHz:  freqKHz,
	})
}

// Wattmeter is the digital AC-side reference meter from §5.1, wired to
// the node's two PSUs.
type Wattmeter struct{ node *hw.Node }

// NewWattmeter attaches a meter to a node's PSU inputs.
func NewWattmeter(node *hw.Node) *Wattmeter { return &Wattmeter{node: node} }

// Read returns (psu1, psu2) watts.
func (w *Wattmeter) Read() (psu1, psu2 float64) {
	_, p1, p2 := w.node.WallPowerW()
	return p1, p2
}
