package sysinfo

import (
	"fmt"
	"io/fs"
	"strings"
	"testing"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/procfs"
	"ecosched/internal/simclock"
)

func liveProvider(t *testing.T) *LscpuProvider {
	t.Helper()
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	return NewLscpu(procfs.New(node))
}

func TestCollectFromSimulatedNode(t *testing.T) {
	info, err := liveProvider(t).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if info.CPUName != "AMD EPYC 7502P 32-Core Processor" {
		t.Fatalf("CPUName = %q", info.CPUName)
	}
	if info.Cores != 32 || info.ThreadsPerCore != 2 {
		t.Fatalf("topology = %d cores × %d threads", info.Cores, info.ThreadsPerCore)
	}
	if info.RAMMB != 256*1024 {
		t.Fatalf("RAMMB = %d, want 262144", info.RAMMB)
	}
	want := []int{1_500_000, 2_200_000, 2_500_000}
	if len(info.FrequenciesKHz) != len(want) {
		t.Fatalf("frequencies = %v", info.FrequenciesKHz)
	}
	for i := range want {
		if info.FrequenciesKHz[i] != want[i] {
			t.Fatalf("frequencies = %v, want ascending %v", info.FrequenciesKHz, want)
		}
	}
}

func TestStringMatchesFigure1Format(t *testing.T) {
	info, err := liveProvider(t).Collect()
	if err != nil {
		t.Fatal(err)
	}
	s := info.String()
	for _, frag := range []string{
		"SystemInfo(cpu_name=", "cores=32", "threads_per_core=2", "1500000.0", "2500000.0",
	} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

func TestKeyIsStable(t *testing.T) {
	p := liveProvider(t)
	a, err := p.Collect()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Collect()
	if a.Key() != b.Key() {
		t.Fatalf("Key not stable: %q vs %q", a.Key(), b.Key())
	}
	if !strings.Contains(a.Key(), "32c/2t") {
		t.Fatalf("Key = %q", a.Key())
	}
}

// fakeFS lets the parsers be tested against malformed content.
type fakeFS map[string]string

func (f fakeFS) ReadFile(path string) ([]byte, error) {
	if s, ok := f[path]; ok {
		return []byte(s), nil
	}
	return nil, fmt.Errorf("fake: %s: %w", path, fs.ErrNotExist)
}

func validFake() fakeFS {
	return fakeFS{
		procfs.PathCPUInfo: "processor\t: 0\nmodel name\t: TestCPU\ncpu cores\t: 2\n\n" +
			"processor\t: 1\nmodel name\t: TestCPU\ncpu cores\t: 2\n\n" +
			"processor\t: 2\nmodel name\t: TestCPU\ncpu cores\t: 2\n\n" +
			"processor\t: 3\nmodel name\t: TestCPU\ncpu cores\t: 2\n\n",
		procfs.PathMemInfo:    "MemTotal:       16777216 kB\n",
		procfs.PathAvailFreqs: "3000000 1000000\n",
	}
}

func TestCollectFromFake(t *testing.T) {
	info, err := NewLscpu(validFake()).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if info.Cores != 2 || info.ThreadsPerCore != 2 || info.RAMMB != 16384 {
		t.Fatalf("info = %+v", info)
	}
	if info.FrequenciesKHz[0] != 1_000_000 {
		t.Fatalf("frequencies not sorted ascending: %v", info.FrequenciesKHz)
	}
}

func TestMissingCPUInfoFile(t *testing.T) {
	f := validFake()
	delete(f, procfs.PathCPUInfo)
	if _, err := NewLscpu(f).Collect(); err == nil {
		t.Fatal("missing cpuinfo accepted")
	}
}

func TestEmptyCPUInfoRejected(t *testing.T) {
	f := validFake()
	f[procfs.PathCPUInfo] = "flags: fpu\n"
	if _, err := NewLscpu(f).Collect(); err == nil {
		t.Fatal("cpuinfo without processors accepted")
	}
}

func TestBadCoreCountRejected(t *testing.T) {
	f := validFake()
	f[procfs.PathCPUInfo] = "processor\t: 0\ncpu cores\t: lots\n"
	if _, err := NewLscpu(f).Collect(); err == nil {
		t.Fatal("non-numeric core count accepted")
	}
}

func TestMissingMemTotalRejected(t *testing.T) {
	f := validFake()
	f[procfs.PathMemInfo] = "MemFree: 123 kB\n"
	if _, err := NewLscpu(f).Collect(); err == nil {
		t.Fatal("meminfo without MemTotal accepted")
	}
}

func TestBadMemTotalRejected(t *testing.T) {
	f := validFake()
	f[procfs.PathMemInfo] = "MemTotal: much kB\n"
	if _, err := NewLscpu(f).Collect(); err == nil {
		t.Fatal("non-numeric MemTotal accepted")
	}
}

func TestEmptyFrequencyLadderRejected(t *testing.T) {
	f := validFake()
	f[procfs.PathAvailFreqs] = "\n"
	if _, err := NewLscpu(f).Collect(); err == nil {
		t.Fatal("empty frequency ladder accepted")
	}
}

func TestBadFrequencyRejected(t *testing.T) {
	f := validFake()
	f[procfs.PathAvailFreqs] = "fast slow\n"
	if _, err := NewLscpu(f).Collect(); err == nil {
		t.Fatal("non-numeric frequencies accepted")
	}
}
