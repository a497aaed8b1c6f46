package ecosched

import (
	"fmt"
	"io"
	"math"
	"time"

	"ecosched/internal/paperdata"
	"ecosched/internal/telemetry"
)

// Rendering helpers that print regenerated results in the paper's
// table layouts, side by side with the published values. cmd/
// experiments uses these; EXPERIMENTS.md records their output.

func boolTF(b bool) string {
	if b {
		return "t"
	}
	return "f"
}

// WriteTable1 prints the top-13 comparison (Table 1).
func (r *SweepResult) WriteTable1(w io.Writer) {
	fmt.Fprintf(w, "Table 1: best 13 configurations by GFLOPS/watt (measured vs paper)\n")
	fmt.Fprintf(w, "%-6s %-4s %-3s %12s %10s %8s %8s\n",
		"Cores", "GHz", "HT", "GFLOPS/W", "paper", "eff%", "perf%")
	std, _ := r.Find(paperdata.CPUCores, 2.5, false)
	for _, row := range r.Top(13) {
		fmt.Fprintf(w, "%-6d %-4.1f %-3s %12.6f %10.6f %8.2f %8.2f\n",
			row.Cores, row.GHz, boolTF(row.HyperThread),
			row.GFLOPSPerWatt, row.Paper,
			row.GFLOPSPerWatt/std.GFLOPSPerWatt,
			row.GFLOPS/std.GFLOPS)
	}
	best := r.Best()
	fmt.Fprintf(w, "headline: best = %dc @ %.1f GHz HT=%s, %.1f%% better GFLOPS/W than standard (paper: 13%%)\n",
		best.Cores, best.GHz, boolTF(best.HyperThread),
		100*(best.GFLOPSPerWatt/std.GFLOPSPerWatt-1))
}

// WriteTables456 prints the full sweep (Tables 4–6).
func (r *SweepResult) WriteTables456(w io.Writer) {
	fmt.Fprintf(w, "Tables 4-6: GFLOPS per watt, all %d configurations (measured vs paper)\n", len(r.Rows))
	fmt.Fprintf(w, "%-6s %-4s %-3s %14s %14s %8s\n", "Cores", "GHz", "HT", "GFLOPS/W", "paper", "err%")
	for _, row := range r.Rows {
		errPct := math.NaN()
		if row.Paper > 0 {
			errPct = 100 * (row.GFLOPSPerWatt - row.Paper) / row.Paper
		}
		fmt.Fprintf(w, "%-6d %-4.1f %-3s %14.6f %14.6f %8.2f\n",
			row.Cores, row.GHz, boolTF(row.HyperThread), row.GFLOPSPerWatt, row.Paper, errPct)
	}
	fmt.Fprintf(w, "max relative error vs paper: %.2f%%; top-13 overlap with Table 1: %d/13; Spearman rank ρ: %.4f\n",
		100*r.MaxRelErrorVsPaper(), r.Top13Overlap(), r.RankCorrelation())
}

// WriteFig14 prints the Figure 14 surface series.
func (r *SweepResult) WriteFig14(w io.Writer) {
	for _, ht := range []bool{true, false} {
		label := "without"
		if ht {
			label = "with"
		}
		fmt.Fprintf(w, "Figure 14 surface (%s hyper-threading): cores ghz gflops_per_watt\n", label)
		for _, p := range r.Surface(ht) {
			fmt.Fprintf(w, "%d %.1f %.6f\n", p.Cores, p.GHz, p.GFLOPSPerWatt)
		}
	}
}

// WriteTable2 prints the run aggregates beside the published row.
func (t *TraceResult) WriteTable2(w io.Writer) {
	fmt.Fprintf(w, "Table 2: average watt usage, kJ, CPU temp and runtime\n")
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %8s %10s\n",
		"Name", "AvgSysW", "AvgCpuW", "SysKJ", "CpuKJ", "TempC", "Runtime")
	for _, pair := range []struct {
		name  string
		agg   telemetry.Aggregate
		paper paperdata.RunAggregate
	}{
		{"Standard", t.StandardAgg, paperdata.Table2Standard},
		{"Best", t.BestAgg, paperdata.Table2Best},
	} {
		fmt.Fprintf(w, "%-10s %8.1f %8.1f %8.1f %8.1f %8.1f %10s\n",
			pair.name, pair.agg.AvgSystemW, pair.agg.AvgCPUW, pair.agg.SystemKJ, pair.agg.CPUKJ,
			pair.agg.AvgCPUTempC, fmtDuration(pair.agg.Runtime))
		fmt.Fprintf(w, "%-10s %8.1f %8.1f %8.1f %8.1f %8.1f %10s\n",
			"  (paper)", pair.paper.AvgSystemWatts, pair.paper.AvgCPUWatts,
			pair.paper.SystemKJ, pair.paper.CPUKJ, pair.paper.AvgCPUTempC,
			fmtDuration(time.Duration(pair.paper.RuntimeSeconds)*time.Second))
	}
	fmt.Fprintf(w, "reductions: system %.1f%% (paper 11%%), CPU %.1f%% (paper 18%%), temp %.1f%% (paper 14%%)\n",
		t.SystemReductionPct, t.CPUReductionPct, t.TempReductionPct)
	fmt.Fprintf(w, "power spread: standard %.1f W vs best %.1f W (Figure 15: standard fluctuates, best is stable)\n",
		t.Standard.PowerSpread(), t.Best.PowerSpread())
}

func fmtDuration(d time.Duration) string {
	d = d.Round(time.Second)
	m := int(d.Minutes())
	s := int(d.Seconds()) % 60
	return fmt.Sprintf("%d:%02d:%02d", m/60, m%60, s)
}

// WriteTable3 prints the related-work comparison.
func (c *ComparisonResult) WriteTable3(w io.Writer) {
	fmt.Fprintf(w, "Table 3: comparison of system power reduction\n")
	fmt.Fprintf(w, "%-36s %14s %16s\n", "Plugin", "CPU red. (%)", "System red. (%)")
	for _, row := range c.Rows {
		cpu := "NaN"
		if !math.IsNaN(row.CPUReductionPct) {
			cpu = fmt.Sprintf("%.1f", row.CPUReductionPct)
		}
		fmt.Fprintf(w, "%-36s %14s %16.2f\n", row.Plugin, cpu, row.SystemReductionPct)
	}
}

// WriteEq1 prints the power-accuracy experiment.
func (p *PowerAccuracyResult) WriteEq1(w io.Writer) {
	fmt.Fprintf(w, "Equation 1 / Figure 13: IPMI vs wattmeter\n")
	fmt.Fprintf(w, "IPMI Total_Power: %.0f W (paper: 258 W)\n", p.IPMIWatts)
	fmt.Fprintf(w, "PSU1: %.1f W, PSU2: %.1f W, wattmeter total: %.1f W (paper: 129.7 + 143.7 = 273.4 W)\n",
		p.PSU1Watts, p.PSU2Watts, p.WattmeterWatts)
	fmt.Fprintf(w, "percentage difference: %.2f%% (paper: 5.96%%)\n", p.PercentDiff)
}

// WriteGovernorAblation prints the A3 governor comparison.
func WriteGovernorAblation(w io.Writer, rows []GovernorRow) {
	fmt.Fprintf(w, "Ablation A3: cpufreq governors vs the eco plugin's pin\n")
	fmt.Fprintf(w, "%-34s %10s %8s %8s %10s %12s\n",
		"Governor", "freq(kHz)", "SysKJ", "CpuKJ", "Runtime", "GFLOPS/W")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %10d %8.1f %8.1f %10s %12.5f\n",
			r.Governor, r.FreqKHz, r.SystemKJ, r.CPUKJ, fmtDuration(r.Runtime), r.Eff)
	}
}

// WriteMetrics dumps the deployment's live metrics registry — the
// observability counters (submissions, cache hits, fallbacks) and
// latency histograms alongside the paper's tables, so a report shows
// what the software did, not just what the hardware measured.
func (d *Deployment) WriteMetrics(w io.Writer) {
	fmt.Fprintln(w, "Deployment metrics:")
	snap := d.Metrics.Snapshot()
	// The parallel sweep's commit batches follow goroutine timing: this
	// series would make two runs of one experiment print different bytes.
	delete(snap.Histograms, metricSweepBatchRows)
	snap.WriteText(w)
}

// metricSweepBatchRows is internal/core's commit-batch size histogram.
const metricSweepBatchRows = "chronus.sweep.batch_rows"
