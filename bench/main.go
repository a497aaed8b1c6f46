// Command bench is the repository's end-to-end benchmark: four long
// closed-loop workloads over the paper's submit path, its offline sweep
// and the cluster simulator, measured from outside the program.
//
//	bash bench/run.sh                       all four workloads, one child process each
//	bash bench/run.sh -trace 1              the per-layer view of every workload
//	bash bench/run.sh -workload sweep-paper one workload in this process
//	bash bench/run.sh -repeat 3             three full runs, median and quartiles per metric
//	bash bench/run.sh -compare a.json b.json
//
// See README.md for the metric and workload tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	// The sandbox this benchmark was sized on has two cores; pinning the
	// scheduler keeps lane and sweep parallelism at the same product
	// defaults wherever it runs.
	runtime.GOMAXPROCS(2)

	var opt options
	var trace int
	var repeat int
	var compare bool
	flag.StringVar(&opt.workload, "workload", "", "run only this workload, in this process: "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&opt.seed, "seed", 42, "seeds every spec and deployment")
	flag.Float64Var(&opt.seconds, "seconds", 0, "timed seconds per workload (default 20, or 0.4 with -quick)")
	flag.IntVar(&trace, "trace", 0, "1: bench-side spans and the per-layer metrics in place of the end-to-end ones")
	flag.BoolVar(&opt.quick, "quick", false, "smoke sizes: a few small batches, seconds in all")
	flag.StringVar(&opt.dataDir, "data", "", "parent of the deployments' data directories (default /dev/shm when writable, else .bench_build/data)")
	flag.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "span and result files go here")
	flag.IntVar(&repeat, "repeat", 1, "full runs of every workload; medians and quartiles go to one result file")
	flag.BoolVar(&compare, "compare", false, "compare two result files (arguments) against BENCHMARK.json's bounds; exit 1 on any excess")
	resultPath := flag.String("result", "", "the result file -repeat writes (default <out>/result.json)")
	manifest := flag.String("manifest", "BENCHMARK.json", "the benchmark's declaration, read by -compare")
	flag.Parse()
	opt.trace = trace != 0
	if opt.seconds <= 0 {
		opt.seconds = 20
		if opt.quick {
			opt.seconds = 0.4
		}
	}

	if *resultPath == "" {
		*resultPath = filepath.Join(opt.outDir, "result.json")
	}

	if err := run(opt, repeat, compare, *manifest, *resultPath, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// scratchDir makes the run's data directory. Unless told where, it
// prefers RAM-backed /dev/shm, so that disk latency is not what is
// measured: on the sandbox's ext4 a sweep op took 30 to 60 % longer and
// slowed by a third over five minutes of back-to-back runs. Where
// /dev/shm cannot be written the directory goes under .bench_build/.
func scratchDir(parent, workload string) (string, error) {
	if parent == "" {
		if dir, err := os.MkdirTemp("/dev/shm", "ecobench-"+workload+"-"); err == nil {
			return dir, nil
		}
		parent = filepath.Join(".bench_build", "data")
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, workload+"-")
}

func run(opt options, repeat int, compare bool, manifest, resultPath string, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(manifest, args[0], args[1], os.Stdout)
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if opt.workload == "" {
		return runAll(opt, repeat, resultPath)
	}

	// One workload, in this process, with a data directory of its own
	// that is gone when the run ends, an interrupted run included.
	dir, err := scratchDir(opt.dataDir, opt.workload)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt.dataDir = dir
	res, err := runWorkload(ctx, opt)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or a check did not pass", opt.workload, res.Failed, res.Attempted)
	}
	return nil
}
