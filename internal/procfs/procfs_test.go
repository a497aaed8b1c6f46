package procfs

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"testing"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/simclock"
)

func newFS(t *testing.T) (*hw.Node, *FS) {
	t.Helper()
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	return node, New(node)
}

func TestCPUInfoShape(t *testing.T) {
	_, f := newFS(t)
	data, err := f.ReadFile(PathCPUInfo)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if got := strings.Count(text, "processor\t:"); got != 64 {
		t.Fatalf("cpuinfo lists %d logical CPUs, want 64 (32 cores × 2 threads)", got)
	}
	if !strings.Contains(text, "AMD EPYC 7502P") {
		t.Fatal("cpuinfo missing CPU model name")
	}
	if !strings.Contains(text, "cpu cores\t: 32") {
		t.Fatal("cpuinfo missing physical core count")
	}
}

func TestMemInfoShape(t *testing.T) {
	_, f := newFS(t)
	data, err := f.ReadFile(PathMemInfo)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "MemTotal:       268435456 kB") {
		t.Fatalf("meminfo = %q, want 256 GB MemTotal", string(data))
	}
}

func TestAvailableFrequenciesDescending(t *testing.T) {
	_, f := newFS(t)
	data, err := f.ReadFile(PathAvailFreqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "2500000 2200000 1500000" {
		t.Fatalf("available frequencies = %q", got)
	}
}

func TestDynamicFilesTrackNodeState(t *testing.T) {
	node, f := newFS(t)
	read := func(p string) string {
		t.Helper()
		b, err := f.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(string(b))
	}
	if read(PathCurFreq) != "2500000" {
		t.Fatalf("cur_freq = %q under performance governor", read(PathCurFreq))
	}
	if read(PathGovernor) != "performance" {
		t.Fatalf("governor = %q", read(PathGovernor))
	}
	if err := node.SetGovernor(hw.GovernorPowersave); err != nil {
		t.Fatal(err)
	}
	if read(PathCurFreq) != "1500000" {
		t.Fatalf("cur_freq = %q under powersave governor", read(PathCurFreq))
	}
	if read(PathGovernor) != "powersave" {
		t.Fatalf("governor = %q after change", read(PathGovernor))
	}
}

func TestUnknownPathIsNotExist(t *testing.T) {
	_, f := newFS(t)
	_, err := f.ReadFile("/proc/loadavg")
	if err == nil {
		t.Fatal("unknown path read succeeded")
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("error %v is not fs.ErrNotExist", err)
	}
	if !strings.Contains(err.Error(), "/proc/loadavg") {
		t.Fatalf("error %v does not name the path", err)
	}
}

// /proc/cpuinfo is kept between reads and re-rendered only when the
// current frequency differs from the one it was rendered at. A fresh
// FS (which has rendered nothing yet) is the oracle: after every
// governor change and userspace pin the long-lived FS must serve
// exactly what a fresh one does, moving back must give the first text
// again, and bytes already handed out must never change.
func TestCPUInfoFollowsCurrentFrequency(t *testing.T) {
	node, f := newFS(t)
	read := func() []byte {
		t.Helper()
		got, err := f.ReadFile(PathCPUInfo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(node).ReadFile(PathCPUInfo)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("at %d kHz the kept cpuinfo differs from a fresh rendering", node.CurrentFreqKHz())
		}
		if mhz := fmt.Sprintf("cpu MHz\t\t: %.3f\n", float64(node.CurrentFreqKHz())/1000); !bytes.Contains(got, []byte(mhz)) {
			t.Fatalf("cpuinfo does not report %q", mhz)
		}
		return got
	}

	first := read()
	firstCopy := append([]byte(nil), first...)
	if again := read(); !bytes.Equal(again, first) {
		t.Fatal("two reads at one frequency differ")
	}

	if err := node.SetGovernor(hw.GovernorPowersave); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(read(), first) {
		t.Fatal("cpuinfo did not change when the governor dropped the frequency")
	}
	if err := node.SetGovernor(hw.GovernorUserspace); err != nil {
		t.Fatal(err)
	}
	for _, khz := range node.Spec().FrequenciesKHz {
		if err := node.SetUserspaceFreq(khz); err != nil {
			t.Fatal(err)
		}
		read()
	}
	if err := node.SetGovernor(hw.GovernorPerformance); err != nil {
		t.Fatal(err)
	}
	if back := read(); !bytes.Equal(back, firstCopy) {
		t.Fatal("cpuinfo after moving back to the first frequency is not the first text")
	}
	if !bytes.Equal(first, firstCopy) {
		t.Fatal("bytes returned by an earlier read were modified by a later one")
	}
}

// Readers on several goroutines (the predict-mode load generator, the
// HTTP handlers) may share one FS over a node nobody is reconfiguring.
func TestConcurrentReadsShareOneFS(t *testing.T) {
	node, f := newFS(t)
	want, err := New(node).ReadFile(PathCPUInfo) // f renders its first text under contention
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, p := range []string{PathCPUInfo, PathMemInfo} {
					got, err := f.ReadFile(p)
					if err != nil {
						t.Error(err)
						return
					}
					if p == PathCPUInfo && !bytes.Equal(got, want) {
						t.Error("concurrent cpuinfo read differs")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
