package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// summary is one metric over the repeats of a result file.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadSummary struct {
	Metrics   map[string]summary `json:"metrics"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	NoisyRuns int                `json:"noisy_runs"`
	SimDigest string             `json:"sim_digest"`
	Runs      []*result          `json:"runs"`
}

// resultFile is what -repeat writes and -compare reads.
type resultFile struct {
	Trace     bool                        `json:"trace"`
	Seed      uint64                      `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Repeat    int                         `json:"repeat"`
	Env       envStamp                    `json:"env"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

// quartiles are Python's statistics.quantiles(values, n=4): the rule
// the repeatability criterion is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// runAll runs every workload repeat times, each run in a child process
// of its own (fresh heap, its own peak RSS), and writes one result file.
func runAll(opt options, repeat int, resultPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := &resultFile{Trace: opt.trace, Seed: opt.seed, Seconds: opt.seconds, Repeat: repeat,
		Workloads: map[string]*workloadSummary{}}
	allCorrect := true
	for r := 0; r < repeat; r++ {
		for _, name := range workloadNames {
			res, err := runChild(exe, opt, name)
			if err != nil {
				return fmt.Errorf("%s (run %d): %w", name, r+1, err)
			}
			ws := file.Workloads[name]
			if ws == nil {
				ws = &workloadSummary{Correct: true, SimDigest: res.SimDigest}
				file.Workloads[name] = ws
			}
			ws.Runs = append(ws.Runs, res)
			ws.Correct = ws.Correct && res.Correct
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			if res.Noisy {
				ws.NoisyRuns++
			}
			file.Env = res.Env
			allCorrect = allCorrect && res.Correct
		}
	}
	for _, ws := range file.Workloads {
		ws.Metrics = map[string]summary{}
		for name, first := range ws.Runs[0].Metrics {
			s := summary{Unit: first.Unit}
			for _, run := range ws.Runs {
				s.Values = append(s.Values, run.Metrics[name].Value)
			}
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			ws.Metrics[name] = s
		}
	}
	if err := os.MkdirAll(filepath.Dir(resultPath), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("result   %s (%d runs of each workload)\n", resultPath, repeat)
	if !allCorrect {
		return fmt.Errorf("an output check failed; see the check lines above")
	}
	return nil
}

// runChild runs one workload in a child process, forwards what it
// prints for people and returns the detail it prints for this process.
func runChild(exe string, opt options, name string) (*result, error) {
	args := []string{"-workload", name,
		"-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-out", opt.outDir}
	if opt.dataDir != "" {
		args = append(args, "-data", opt.dataDir)
	}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a failed check exits 1 after printing; the detail line says which

	var res *result
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "detail   "):
			res = &result{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "detail   ")), res); err != nil {
				return nil, fmt.Errorf("child's detail line: %w", err)
			}
		case strings.HasPrefix(line, "{"):
			// the contract line, for the driver
		default:
			fmt.Println(line)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("child printed no result: %v", runErr)
	}
	return res, nil
}

// manifestFile is BENCHMARK.json as the driver reads it.
type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for each workload and metric, how much worse b's
// median is than a's as a share of a's, next to the metric's bound, and
// fails when any end-to-end metric exceeds its bound. Per-layer metrics
// have no bound and are listed only.
func compareFiles(manifestPath, aPath, bPath string, w io.Writer) error {
	var m manifestFile
	if err := readJSON(manifestPath, &m); err != nil {
		return err
	}
	var a, b resultFile
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	if a.Trace != b.Trace {
		return fmt.Errorf("%s and %s are not the same kind of run (trace %v vs %v)", aPath, bPath, a.Trace, b.Trace)
	}
	type row struct {
		name, better string
		bound        float64 // < 0: no bound
	}
	var rows []row
	if a.Trace {
		for _, d := range m.PerLayer {
			rows = append(rows, row{d.Name, d.Better, -1})
		}
	} else {
		for _, d := range m.EndToEnd {
			if d.Bound == nil {
				return fmt.Errorf("%s: end-to-end metric %s has no bound", manifestPath, d.Name)
			}
			rows = append(rows, row{d.Name, d.Better, *d.Bound})
		}
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tunit\tworse by\tbound\ta spread\tb spread\tverdict")
	excess := 0
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from a result file", name)
		}
		for _, r := range rows {
			sa, okA := wa.Metrics[r.name]
			sb, okB := wb.Metrics[r.name]
			if !okA || !okB {
				return fmt.Errorf("%s/%s is missing from a result file", name, r.name)
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if r.better == "higher" {
				worse = -worse
			}
			verdict, bound := "ok", "-"
			if r.bound >= 0 {
				bound = fmt.Sprintf("%.3f", r.bound)
				if worse > r.bound {
					verdict = "EXCESS"
					excess++
				}
			} else {
				verdict = "listed"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.4f\t%s\t%.4f\t%.4f\t%s\n", name, r.name,
				sa.Median, sb.Median, sa.Unit, worse, bound, spread(sa), spread(sb), verdict)
		}
		same := "same"
		if wa.SimDigest != wb.SimDigest {
			same = "DIFFERENT (simulated results changed, or the seeds differ)"
		}
		fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\t\t\t\t\t%s\n", name, wa.SimDigest, wb.SimDigest, same)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if excess > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", excess)
	}
	return nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
