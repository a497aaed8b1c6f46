// Command ecosim runs the paper's complete story end to end on the
// simulated cluster: benchmark a sweep, train and pre-load a model,
// then submit the same HPCG job twice — once plain, once with the
// `--comment "chronus"` opt-in — and print the energy accounting the
// eco plugin's rewrite saves. (Cluster-scale simulation from a
// workload spec is `chronus simulate`.)
package main

import (
	"flag"
	"fmt"
	"os"

	"ecosched"
	"ecosched/internal/ecoplugin"
	"ecosched/internal/slurm"
)

func main() {
	dataDir := flag.String("data", "", "state directory (default: a temporary directory)")
	model := flag.String("model", "brute-force", "optimizer to train")
	full := flag.Bool("full", false, "benchmark the full 138-configuration paper sweep instead of the quick subset")
	flag.Parse()

	if err := run(*dataDir, *model, *full); err != nil {
		fmt.Fprintln(os.Stderr, "ecosim:", err)
		os.Exit(1)
	}
}

func run(dataDir, model string, full bool) error {
	dir := dataDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ecosim")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	d, err := ecosched.New(dir, ecosched.WithLogWriter(os.Stdout), ecosched.WithTracing())
	if err != nil {
		return err
	}
	defer d.Close()

	configs := ecosched.QuickSweepConfigs()
	if full {
		configs = ecosched.PaperSweepConfigs()
	}
	fmt.Printf("== chronus benchmark: %d configurations ==\n", len(configs))
	if _, err := d.BenchmarkConfigs(configs, 0); err != nil {
		return err
	}

	// An opt-in submission before any model exists: the plugin must
	// fail open and let the job through unmodified.
	fmt.Println("== sbatch HPCG --comment \"chronus\" (no model yet: plugin falls back) ==")
	early, err := d.SubmitHPCGOptIn()
	if err != nil {
		return err
	}
	if _, err := d.Cluster.WaitFor(early.ID); err != nil {
		return err
	}
	printDecision(d, early.ID)
	fmt.Printf("plugin fallbacks so far: %d (job ran unmodified)\n", d.Plugin.Fallbacks)

	fmt.Printf("== chronus init-model --model %s ==\n", model)
	meta, err := d.TrainModel(model)
	if err != nil {
		return err
	}
	fmt.Printf("== chronus load-model --model %d ==\n", meta.ID)
	if _, err := d.PreloadModel(meta.ID); err != nil {
		return err
	}

	fmt.Println("== sbatch HPCG (plain) ==")
	plain, err := d.SubmitHPCG(ecosched.StandardConfig())
	if err != nil {
		return err
	}
	if _, err := d.Cluster.WaitFor(plain.ID); err != nil {
		return err
	}
	printDecision(d, plain.ID)

	fmt.Println("== sbatch HPCG --comment \"chronus\" ==")
	eco, err := d.SubmitHPCGOptIn()
	if err != nil {
		return err
	}
	done, err := d.Cluster.WaitFor(eco.ID)
	if err != nil {
		return err
	}
	if done.State != slurm.StateCompleted {
		return fmt.Errorf("eco job ended %s (%s)", done.State, done.Reason)
	}
	printDecision(d, eco.ID)

	fmt.Println("\n== sinfo ==")
	fmt.Print(d.Cluster.FormatSinfo())
	fmt.Println("\n== sacct (energy accounting) ==")
	fmt.Print(d.Cluster.FormatSacct())

	pRec, _ := d.Cluster.Accounting().Record(plain.ID)
	eRec, _ := d.Cluster.Accounting().Record(eco.ID)
	fmt.Printf("\neco plugin rewrote %d of %d submissions\n", d.Plugin.Rewritten, d.Plugin.Submissions)
	fmt.Printf("decision journal: %s (replay with `chronus -data %s trace %d`)\n",
		ecosched.EventsFile, dir, eco.ID)
	fmt.Printf("system energy saving: %.1f%% (paper: 11%%)\n", 100*(1-eRec.SystemKJ/pRec.SystemKJ))
	fmt.Printf("CPU energy saving:    %.1f%% (paper: 18%%)\n", 100*(1-eRec.CPUKJ/pRec.CPUKJ))
	return nil
}

// printDecision prints the per-job decision line sourced from the
// submission's trace spans: which path answered (preloaded, cache,
// cold), what was chosen, how long the plugin spent, and the budget
// verdict.
func printDecision(d *ecosched.Deployment, jobID int) {
	events := d.DecisionTrace(jobID)
	for _, e := range events {
		if e.Name != ecoplugin.SpanSubmit {
			continue
		}
		a := e.Attrs
		line := fmt.Sprintf("decision job=%d verdict=%s", jobID, a["verdict"])
		if a["source"] != "" {
			line += fmt.Sprintf(" source=%s config=%q", a["source"], a["config"])
		}
		if a["cause"] != "" {
			line += fmt.Sprintf(" cause=%q", a["cause"])
		}
		if a["sim_latency"] != "" {
			line += fmt.Sprintf(" latency=%s", a["sim_latency"])
		}
		fmt.Println(line)
		return
	}
	// An untraced or unmatched submission (e.g. the trace aged out of
	// the ring) still gets a line, so the output stays parseable.
	fmt.Printf("decision job=%d verdict=unknown\n", jobID)
}
