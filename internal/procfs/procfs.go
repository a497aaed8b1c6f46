// Package procfs renders a virtual /proc and /sys view of a simulated
// node. The paper's components identify and inspect the machine by
// reading Linux special files — Chronus reads the DVFS ladder from
// /sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies,
// and job_submit_eco hashes /proc/cpuinfo and /proc/meminfo to build
// the system identifier (§4.2.1). Routing those reads through this
// package exercises the same parsing and error-handling paths against
// the simulated hardware.
package procfs

import (
	"bytes"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync/atomic"

	"ecosched/internal/hw"
)

// FileReader is the narrow read interface consumers depend on. The
// real system's equivalent is os.ReadFile.
//
// The returned bytes are read-only. An implementation may hand every
// caller the same backing array (FS does, and the fault decorators
// return a prefix of it), so callers must not write to them; and an
// implementation never changes bytes it has returned, so callers may
// keep them to compare against a later read.
type FileReader interface {
	ReadFile(path string) ([]byte, error)
}

// FS serves virtual /proc and /sys files for one node. Static files
// are rendered from the node spec; dynamic files (current frequency,
// governor) reflect the node's live state at read time.
//
// Every read consults the node, but text that cannot have changed is
// not rendered again: /proc/meminfo depends on the spec alone and is
// rendered in New, and /proc/cpuinfo depends on the spec and the
// current frequency, so the last rendering is kept with the frequency
// it was rendered at and replaced when a read finds another.
type FS struct {
	node    *hw.Node
	meminfo []byte
	cpuinfo atomic.Pointer[cpuInfoSnapshot]
}

// cpuInfoSnapshot is one immutable rendering of /proc/cpuinfo.
type cpuInfoSnapshot struct {
	freqKHz int
	text    []byte
}

// New returns a virtual procfs over the given node.
func New(node *hw.Node) *FS {
	return &FS{node: node, meminfo: renderMemInfo(node.Spec())}
}

// Paths served by FS.
const (
	PathCPUInfo    = "/proc/cpuinfo"
	PathMemInfo    = "/proc/meminfo"
	PathAvailFreqs = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_available_frequencies"
	PathCurFreq    = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq"
	PathGovernor   = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
	PathIPMIDev    = "/dev/ipmi0"
)

// ReadFile implements FileReader for the supported paths. Unknown
// paths return fs.ErrNotExist wrapped with the path, like os.ReadFile.
func (f *FS) ReadFile(path string) ([]byte, error) {
	switch path {
	case PathCPUInfo:
		return f.cpuInfo(), nil
	case PathMemInfo:
		return f.meminfo, nil
	case PathAvailFreqs:
		return []byte(f.renderAvailFreqs()), nil
	case PathCurFreq:
		return []byte(fmt.Sprintf("%d\n", f.node.CurrentFreqKHz())), nil
	case PathGovernor:
		return []byte(string(f.node.Governor()) + "\n"), nil
	default:
		return nil, fmt.Errorf("procfs: read %s: %w", path, fs.ErrNotExist)
	}
}

// cpuInfo returns /proc/cpuinfo at the node's current frequency.
func (f *FS) cpuInfo() []byte {
	khz := f.node.CurrentFreqKHz()
	if snap := f.cpuinfo.Load(); snap != nil && snap.freqKHz == khz {
		return snap.text
	}
	snap := &cpuInfoSnapshot{freqKHz: khz, text: renderCPUInfo(f.node.Spec(), khz)}
	f.cpuinfo.Store(snap)
	return snap.text
}

func renderCPUInfo(spec hw.NodeSpec, freqKHz int) []byte {
	var b bytes.Buffer
	logical := spec.Cores * spec.ThreadsPerCore
	mhz := float64(freqKHz) / 1000
	for cpu := 0; cpu < logical; cpu++ {
		core := cpu % spec.Cores // Linux enumerates siblings after all cores
		fmt.Fprintf(&b, "processor\t: %d\n", cpu)
		fmt.Fprintf(&b, "vendor_id\t: AuthenticAMD\n")
		fmt.Fprintf(&b, "model name\t: %s\n", spec.CPUModel)
		fmt.Fprintf(&b, "cpu MHz\t\t: %.3f\n", mhz)
		fmt.Fprintf(&b, "physical id\t: 0\n")
		fmt.Fprintf(&b, "siblings\t: %d\n", logical)
		fmt.Fprintf(&b, "core id\t\t: %d\n", core)
		fmt.Fprintf(&b, "cpu cores\t: %d\n", spec.Cores)
		fmt.Fprintf(&b, "cache size\t: 512 KB\n")
		b.WriteString("\n")
	}
	return b.Bytes()
}

func renderMemInfo(spec hw.NodeSpec) []byte {
	totalKB := int64(spec.RAMGB) * 1024 * 1024
	var b bytes.Buffer
	fmt.Fprintf(&b, "MemTotal:       %d kB\n", totalKB)
	fmt.Fprintf(&b, "MemFree:        %d kB\n", totalKB*9/10)
	fmt.Fprintf(&b, "MemAvailable:   %d kB\n", totalKB*9/10)
	return b.Bytes()
}

func (f *FS) renderAvailFreqs() string {
	freqs := append([]int(nil), f.node.Spec().FrequenciesKHz...)
	// sysfs lists available frequencies in descending order.
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	parts := make([]string, len(freqs))
	for i, f := range freqs {
		parts[i] = fmt.Sprintf("%d", f)
	}
	return strings.Join(parts, " ") + "\n"
}
