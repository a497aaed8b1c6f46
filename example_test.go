package ecosched_test

import (
	"fmt"
	"log"
	"os"

	"ecosched"
)

// ExampleNew walks the paper's full pipeline: benchmark,
// train, pre-load, then submit an opted-in job that the eco plugin
// rewrites to the energy-efficient configuration.
func ExampleNew() {
	dir, err := os.MkdirTemp("", "example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	d, err := ecosched.New(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	if _, err := d.BenchmarkConfigs(ecosched.QuickSweepConfigs(), 0); err != nil {
		log.Fatal(err)
	}
	meta, err := d.TrainModel("brute-force")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := d.PreloadModel(meta.ID); err != nil {
		log.Fatal(err)
	}

	job, err := d.SubmitHPCGOptIn()
	if err != nil {
		log.Fatal(err)
	}
	done, err := d.Cluster.WaitFor(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	rec, _ := d.Cluster.Accounting().Record(done.ID)
	fmt.Printf("rewritten to %d cores @ %.1f GHz\n", rec.Cores, float64(rec.FreqKHz)/1e6)
	fmt.Printf("state: %s\n", done.State)
	// Output:
	// rewritten to 32 cores @ 2.2 GHz
	// state: COMPLETED
}

// ExampleDeployment_energyEstimate compares the paper's standard and
// best configurations on the calibrated node model.
func ExampleDeployment_energyEstimate() {
	dir, _ := os.MkdirTemp("", "example")
	defer os.RemoveAll(dir)
	d, err := ecosched.New(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	calib := d.Nodes[0].Calibration()
	stdKJ, _ := calib.JobEnergyKJ(ecosched.StandardConfig())
	bestKJ, _ := calib.JobEnergyKJ(ecosched.BestConfig())
	fmt.Printf("standard: %.0f kJ\n", stdKJ)
	fmt.Printf("best:     %.0f kJ\n", bestKJ)
	fmt.Printf("saving:   %.0f%%\n", 100*(1-bestKJ/stdKJ))
	// Output:
	// standard: 240 kJ
	// best:     213 kJ
	// saving:   11%
}
