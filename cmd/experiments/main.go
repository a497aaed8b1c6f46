// Command experiments regenerates every table and figure of the
// paper's evaluation (§5) plus the ablations, printing each beside the
// published values. EXPERIMENTS.md records its output.
//
// Usage:
//
//	experiments [-exp all|table1|table456|fig14|fig15|table2|table3|eq1|fig1|
//	             ablation-optimizer|ablation-preload|ablation-governor|fig13]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecosched"
	"ecosched/internal/ipmi"
)

func main() {
	exp := flag.String("exp", "all", "which experiment to run")
	flag.Parse()
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(exp string) error {
	dir, err := os.MkdirTemp("", "ecosched-experiments")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	d, err := ecosched.New(dir)
	if err != nil {
		return err
	}
	defer d.Close()

	want := func(names ...string) bool {
		if exp == "all" {
			return true
		}
		for _, n := range names {
			if exp == n {
				return true
			}
		}
		return false
	}
	ran := false

	if want("fig1") {
		ran = true
		fmt.Println("== Figure 1: Chronus making an energy benchmark ==")
		logged, err := ecosched.New(dir+"/fig1", ecosched.WithLogWriter(os.Stdout))
		if err != nil {
			return err
		}
		if _, err := logged.BenchmarkConfigs([]ecosched.Config{ecosched.StandardConfig()}, 0); err != nil {
			return err
		}
		logged.Close()
		fmt.Println()
	}

	var sweep *ecosched.SweepResult
	if want("table1", "table456", "fig14", "ablation-optimizer", "table3") {
		fmt.Println("running the 138-configuration sweep (simulated)...")
		sweep, err = d.RunSweepExperiment()
		if err != nil {
			return err
		}
	}

	if want("table1") {
		ran = true
		sweep.WriteTable1(os.Stdout)
		fmt.Println()
	}
	if want("table456") {
		ran = true
		sweep.WriteTables456(os.Stdout)
		fmt.Println()
	}
	if want("fig14") {
		ran = true
		sweep.WriteFig14(os.Stdout)
		fmt.Println()
	}

	var trace *ecosched.TraceResult
	if want("fig15", "table2", "table3") {
		trace, err = d.RunTraceExperiment()
		if err != nil {
			return err
		}
	}
	if want("fig15") {
		ran = true
		fmt.Println("== Figure 15: system samples for best and standard configuration ==")
		fmt.Println("seconds standard_sys_w standard_cpu_w standard_temp best_sys_w best_cpu_w best_temp")
		std := trace.Standard.Downsample(10)
		best := trace.Best.Downsample(10)
		n := std.Len()
		if best.Len() < n {
			n = best.Len()
		}
		start := std.Samples[0].Tick
		for i := 0; i < n; i++ {
			s, b := std.Samples[i], best.Samples[i]
			fmt.Printf("%.0f %.0f %.0f %.0f %.0f %.0f %.0f\n",
				time.Duration(s.Tick-start).Seconds(), s.SystemW, s.CPUW, s.CPUTempC,
				b.SystemW, b.CPUW, b.CPUTempC)
		}
		fmt.Printf("p05/p95 system power: standard %.0f/%.0f W, best %.0f/%.0f W\n",
			trace.Standard.Percentile(5), trace.Standard.Percentile(95),
			trace.Best.Percentile(5), trace.Best.Percentile(95))
		fmt.Println()
	}
	if want("table2") {
		ran = true
		trace.WriteTable2(os.Stdout)
		fmt.Println()
	}
	if want("table3") {
		ran = true
		cmp, err := d.RunComparisonExperiment(trace)
		if err != nil {
			return err
		}
		cmp.WriteTable3(os.Stdout)
		fmt.Println()
	}

	if want("fig13") {
		ran = true
		fmt.Println("== Figure 13/16: watch-total-power (ipmitool sdr list | grep Total) ==")
		wd, err := ecosched.New(dir + "/fig13")
		if err != nil {
			return err
		}
		job, err := wd.SubmitHPCG(ecosched.StandardConfig())
		if err != nil {
			return err
		}
		conn, err := wd.BMCs[0].Open(false)
		if err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			wd.Sim.RunFor(100 * time.Second) // watch -n 100, as in the figure
			reading, err := conn.Read(ipmi.SensorTotalPower)
			if err != nil {
				return err
			}
			fmt.Printf("TIME:%s %s\n", wd.Sim.Now().Format("15:04:05"), reading)
		}
		if _, err := wd.Cluster.WaitFor(job.ID); err != nil {
			return err
		}
		wd.Close()
		fmt.Println()
	}

	if want("eq1") {
		ran = true
		acc, err := d.RunPowerAccuracyExperiment()
		if err != nil {
			return err
		}
		acc.WriteEq1(os.Stdout)
		fmt.Println()
	}

	if want("ablation-optimizer") {
		ran = true
		rows, err := d.RunOptimizerAblation()
		if err != nil {
			return err
		}
		fmt.Println("Ablation A1: optimizer choice (trained on the full sweep)")
		fmt.Printf("%-20s %-18s %14s %10s %8s\n", "Optimizer", "Chosen config", "true GFLOPS/W", "regret %", "CV R²")
		for _, r := range rows {
			fmt.Printf("%-20s %-18s %14.6f %10.2f %8.3f\n", r.Name, r.Chosen, r.TrueEff, r.RegretPct, r.CVR2)
			if r.Importance != nil {
				fmt.Printf("%-20s   feature importance: cores %.2f, frequency %.2f, threads/core %.2f\n",
					"", r.Importance[0], r.Importance[1], r.Importance[2])
			}
		}
		fmt.Println()
	}

	if want("ablation-governor") {
		ran = true
		rows, err := d.RunGovernorAblation()
		if err != nil {
			return err
		}
		ecosched.WriteGovernorAblation(os.Stdout, rows)
		fmt.Println()
	}

	if want("ablation-preload") {
		ran = true
		// Needs its own deployment with a small sweep + model.
		pd, err := ecosched.New(dir + "/preload")
		if err != nil {
			return err
		}
		defer pd.Close()
		if _, err := pd.BenchmarkConfigs(ecosched.QuickSweepConfigs(), 0); err != nil {
			return err
		}
		meta, err := pd.TrainModel("brute-force")
		if err != nil {
			return err
		}
		res, err := pd.RunPreloadAblation(meta.ID)
		if err != nil {
			return err
		}
		fmt.Println("Ablation A2: submit-time prediction latency")
		fmt.Printf("cold path (DB + blob):  %8v  within %v budget: %v\n",
			res.ColdLatency.Round(time.Millisecond), res.Budget, res.ColdWithin)
		fmt.Printf("pre-loaded local model: %8v  within %v budget: %v\n",
			res.PreloadLatency.Round(time.Millisecond), res.Budget, res.PreloadWithin)
		fmt.Println()
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	fmt.Println()
	d.WriteMetrics(os.Stdout)
	return nil
}
