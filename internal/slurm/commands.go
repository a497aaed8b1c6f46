package slurm

import (
	"fmt"
	"strings"
	"time"
)

// Text renderings of the user commands cmd/ecosim prints: sinfo's node
// states and sacct's energy accounting. squeue and scontrol show job
// are the Squeue and Job accessors; like slurmctld's, they show live
// jobs only, and an ended job is read back through sacct (Accounting).

// FormatSinfo renders node states in sinfo's layout.
func (c *Controller) FormatSinfo() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %6s %s\n", "NODELIST", "STATE", "CPUS", "REASON")
	for _, n := range c.Sinfo() {
		reason := "none"
		if n.State == "alloc" {
			reason = fmt.Sprintf("job %d", n.JobID)
		}
		fmt.Fprintf(&b, "%-10s %6s %6d %s\n", n.Name, n.State, n.Cores, reason)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func orNull(s string) string {
	if s == "" {
		return "(null)"
	}
	return s
}

func clockFormat(d time.Duration) string {
	d = d.Round(time.Second)
	h := int(d.Hours())
	m := int(d.Minutes()) % 60
	s := int(d.Seconds()) % 60
	if h > 0 {
		return fmt.Sprintf("%d:%02d:%02d", h, m, s)
	}
	return fmt.Sprintf("%d:%02d", m, s)
}

// FormatSacct renders the accounting the way `sacct --format=...` with
// energy fields would: one row per finished job, including the
// consumed-energy columns the evaluation reads.
func (c *Controller) FormatSacct() string { return formatSacct(c.Accounting().Records()) }

func formatSacct(recs []AcctRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %18s %10s %6s %10s %10s %10s %12s\n",
		"JobID", "JobName", "State", "Cores", "Elapsed", "SysKJ", "CpuKJ", "GFLOPS/W")
	for _, r := range recs {
		fmt.Fprintf(&b, "%8d %18s %10s %6d %10s %10.1f %10.1f %12.5f\n",
			r.JobID, truncate(orNull(r.Name), 18), r.State, r.Cores,
			clockFormat(r.Runtime()), r.SystemKJ, r.CPUKJ, r.GFLOPSPerWatt())
	}
	return b.String()
}
