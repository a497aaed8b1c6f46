package slurm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Partition is the controller's named job queue with its own time cap —
// the paper's related work weighs "the partition it was submitted to"
// in priority computation (§2.1).
type Partition struct {
	Name    string
	MaxTime time.Duration // 0 = unlimited
}

// Conf is the parsed slurm.conf subset the simulation honours.
type Conf struct {
	ClusterName      string
	JobSubmitPlugins []string      // the paper's "JobSubmitPlugins=eco"
	PluginBudget     time.Duration // submit-plugin latency budget
	DefaultTimeLimit time.Duration
	// Partition is the one partition the controller schedules. A
	// multi-partition cluster is one controller per partition, as the
	// cluster simulator's lanes build it.
	Partition Partition
	// EcoBudget is the eco plugin's own predicted-latency budget,
	// parsed from SchedulerParameters=eco_budget=<duration>. When a
	// prediction's simulated decision latency would exceed it, the
	// plugin falls back to submitting the job unmodified instead of
	// stalling sbatch. Zero means unenforced.
	EcoBudget time.Duration
}

// DefaultConf returns the configuration an unmodified install runs:
// no submit plugins, a 2-second plugin budget, 24 h time limit.
func DefaultConf() Conf {
	return Conf{
		ClusterName:      "cluster",
		PluginBudget:     2 * time.Second,
		DefaultTimeLimit: 24 * time.Hour,
		Partition:        Partition{Name: "batch"},
	}
}

// ParseConf parses slurm.conf text: KEY=VALUE lines, '#' comments,
// unknown keys ignored (as Slurm tolerates plenty of them). Supported
// keys: ClusterName, JobSubmitPlugins (comma-separated),
// PluginBudget (Go duration), DefaultTime (minutes, Slurm-style),
// SchedulerParameters (its eco_budget option) and one PartitionName
// line.
func ParseConf(text string) (Conf, error) {
	conf := DefaultConf()
	sawPartition := false
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		key, value, found := strings.Cut(line, "=")
		if !found {
			return Conf{}, fmt.Errorf("slurm: conf line %d: no '=' in %q", lineNo+1, line)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch strings.ToLower(key) {
		case "clustername":
			conf.ClusterName = value
		case "jobsubmitplugins":
			conf.JobSubmitPlugins = nil
			for _, p := range strings.Split(value, ",") {
				if p = strings.TrimSpace(p); p != "" {
					conf.JobSubmitPlugins = append(conf.JobSubmitPlugins, p)
				}
			}
		case "schedulerparameters":
			if err := conf.parseSchedulerParameters(value); err != nil {
				return Conf{}, fmt.Errorf("slurm: conf line %d: %w", lineNo+1, err)
			}
		case "pluginbudget":
			d, err := time.ParseDuration(value)
			if err != nil || d < 0 {
				return Conf{}, fmt.Errorf("slurm: conf line %d: bad PluginBudget %q (want a duration >= 0)", lineNo+1, value)
			}
			conf.PluginBudget = d
		case "defaulttime":
			d, err := parseMinutes(value)
			if err != nil {
				return Conf{}, fmt.Errorf("slurm: conf line %d: bad DefaultTime %q: %w", lineNo+1, value, err)
			}
			conf.DefaultTimeLimit = d
		case "partitionname":
			// Slurm style: PartitionName=debug MaxTime=30 — the remaining
			// tokens arrived glued into value by the KEY=VALUE split, so
			// re-split on whitespace. The line replaces the implicit
			// default; a second one names a partition no controller runs.
			if sawPartition {
				return Conf{}, fmt.Errorf("slurm: conf line %d: second PartitionName (a controller schedules one partition)", lineNo+1)
			}
			sawPartition = true
			p, err := parsePartition(value)
			if err != nil {
				return Conf{}, fmt.Errorf("slurm: conf line %d: %w", lineNo+1, err)
			}
			conf.Partition = p
		}
	}
	return conf, nil
}

// parseSchedulerParameters splits the Slurm-style comma-separated
// option list and reads the one option the simulation understands,
// eco_budget; other options are skipped, as unknown keys are.
func (c *Conf) parseSchedulerParameters(value string) error {
	for _, opt := range strings.Split(value, ",") {
		key, v, _ := strings.Cut(opt, "=")
		if strings.EqualFold(strings.TrimSpace(key), "eco_budget") {
			v = strings.TrimSpace(v)
			d, err := time.ParseDuration(v)
			if err != nil {
				return fmt.Errorf("bad eco_budget %q: %w", v, err)
			}
			if d < 0 {
				return fmt.Errorf("negative eco_budget %q", v)
			}
			c.EcoBudget = d
		}
	}
	return nil
}

func parsePartition(value string) (Partition, error) {
	fields := strings.Fields(value)
	if len(fields) == 0 || fields[0] == "" {
		return Partition{}, fmt.Errorf("empty PartitionName")
	}
	p := Partition{Name: fields[0]}
	for _, tok := range fields[1:] {
		key, v, found := strings.Cut(tok, "=")
		if !found {
			return Partition{}, fmt.Errorf("bad partition attribute %q", tok)
		}
		if strings.EqualFold(key, "maxtime") {
			d, err := parseMinutes(v)
			if err != nil || d == 0 {
				return Partition{}, fmt.Errorf("bad MaxTime %q", v)
			}
			p.MaxTime = d
		}
	}
	return p, nil
}

// parseMinutes reads a Slurm minute count: a non-negative decimal
// integer, nothing after its digits, that fits a time.Duration.
func parseMinutes(v string) (time.Duration, error) {
	minutes, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, err
	}
	if minutes < 0 || minutes > math.MaxInt64/int64(time.Minute) {
		return 0, fmt.Errorf("out of range")
	}
	return time.Duration(minutes) * time.Minute, nil
}
