// Package sysinfo is Chronus's System Info integration interface
// (paper §3.2): it gathers the information that identifies a system —
// CPU model, core count, threads per core, available frequencies and
// RAM. The paper's implementation shells out to lscpu; ours parses the
// same kernel files lscpu reads, served by the virtual procfs.
package sysinfo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ecosched/internal/procfs"
)

// SystemInfo mirrors the paper's SystemInfo record (visible in
// Figure 1's log line): cpu_name, cores, threads_per_core and the
// frequency ladder, plus RAM which enters the system hash.
type SystemInfo struct {
	CPUName        string
	Cores          int
	ThreadsPerCore int
	FrequenciesKHz []int
	RAMMB          int
}

// Provider is the integration interface the application layer depends
// on (dependency inversion, paper §4.1).
type Provider interface {
	Collect() (SystemInfo, error)
}

// LscpuProvider implements Provider by parsing /proc/cpuinfo,
// /proc/meminfo and the cpufreq sysfs ladder — the lscpu data sources.
type LscpuProvider struct {
	FS procfs.FileReader
}

// NewLscpu returns a Provider reading from the given file system.
func NewLscpu(fs procfs.FileReader) *LscpuProvider { return &LscpuProvider{FS: fs} }

// Collect gathers the system description.
func (p *LscpuProvider) Collect() (SystemInfo, error) {
	var info SystemInfo

	cpuinfo, err := p.FS.ReadFile(procfs.PathCPUInfo)
	if err != nil {
		return info, fmt.Errorf("sysinfo: %w", err)
	}
	if err := parseCPUInfo(string(cpuinfo), &info); err != nil {
		return info, err
	}

	meminfo, err := p.FS.ReadFile(procfs.PathMemInfo)
	if err != nil {
		return info, fmt.Errorf("sysinfo: %w", err)
	}
	ramKB, err := parseMemTotalKB(string(meminfo))
	if err != nil {
		return info, err
	}
	info.RAMMB = int(ramKB / 1024)

	freqs, err := p.FS.ReadFile(procfs.PathAvailFreqs)
	if err != nil {
		return info, fmt.Errorf("sysinfo: %w", err)
	}
	info.FrequenciesKHz, err = parseFrequencies(string(freqs))
	if err != nil {
		return info, err
	}
	return info, nil
}

func parseCPUInfo(text string, info *SystemInfo) error {
	logical := 0
	cores := 0
	for _, line := range strings.Split(text, "\n") {
		key, value, found := strings.Cut(line, ":")
		if !found {
			continue
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "processor":
			logical++
		case "model name":
			if info.CPUName == "" {
				info.CPUName = value
			}
		case "cpu cores":
			if cores == 0 {
				n, err := strconv.Atoi(value)
				if err != nil {
					return fmt.Errorf("sysinfo: bad cpu cores %q: %w", value, err)
				}
				cores = n
			}
		}
	}
	if logical == 0 || cores == 0 {
		return fmt.Errorf("sysinfo: cpuinfo missing processor entries")
	}
	info.Cores = cores
	info.ThreadsPerCore = logical / cores
	if info.ThreadsPerCore < 1 {
		info.ThreadsPerCore = 1
	}
	return nil
}

func parseMemTotalKB(text string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("sysinfo: bad MemTotal %q: %w", fields[1], err)
		}
		return kb, nil
	}
	return 0, fmt.Errorf("sysinfo: MemTotal not found in meminfo")
}

func parseFrequencies(text string) ([]int, error) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return nil, fmt.Errorf("sysinfo: empty frequency ladder")
	}
	freqs := make([]int, 0, len(fields))
	for _, f := range fields {
		khz, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("sysinfo: bad frequency %q: %w", f, err)
		}
		freqs = append(freqs, khz)
	}
	sort.Ints(freqs)
	return freqs, nil
}

// String renders the record the way Chronus logs it (Figure 1).
func (s SystemInfo) String() string {
	fs := make([]string, len(s.FrequenciesKHz))
	for i, f := range s.FrequenciesKHz {
		fs[i] = fmt.Sprintf("%.1f", float64(f))
	}
	return fmt.Sprintf("SystemInfo(cpu_name=%q, cores=%d, threads_per_core=%d, frequencies=[%s])",
		s.CPUName, s.Cores, s.ThreadsPerCore, strings.Join(fs, ", "))
}

// Key returns a stable human-readable identity string, concatenating
// the fields that define a system configuration. The eco plugin hashes
// the raw kernel files instead (ecoplugin.SystemHash); this key is what
// Chronus stores in its repository.
func (s SystemInfo) Key() string {
	return fmt.Sprintf("%s/%dc/%dt/%dMB", s.CPUName, s.Cores, s.ThreadsPerCore, s.RAMMB)
}
