package slurm

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Fuzz targets: the two text surfaces that parse untrusted input — the
// sbatch script and slurm.conf. Neither may panic, and accepted
// scripts must produce internally consistent descriptions. The script
// parser must also agree with refParseBatchScript, its earlier
// strings.Split / strings.Fields form, on every input, and
// SubmitScript's memo of the last parse with the parser itself.

func FuzzParseBatchScript(f *testing.F) {
	f.Add(RenderBatchScript("/opt/hpcg/xhpcg", 32, 2_200_000, 1))
	f.Add("#SBATCH --comment \"chronus\"\nsrun /bin/app\n")
	f.Add("#SBATCH --array=0-15\n#SBATCH --time=90\nsrun --mpi=pmix_v4 /a\n")
	f.Add("#SBATCH --cpu-freq=1500000-2500000\nsrun /a\n")
	f.Add("#SBATCH\nsrun\n")
	f.Add("")
	f.Add("#SBATCH --time=400000000\nsrun /a\n")
	f.Add("#SBATCH --time=200000000\nsrun /a\n")
	f.Add("#SBATCH --time=-5\nsrun /a\n")
	f.Add("#SBATCH --ntasks=8\r\n#SBATCH --comment chronus\r\nsrun /a\r\n")
	f.Add("#SBATCH\t--ntasks=8\t--comment\t\"chronus\"\nsrun\t/a\n")
	f.Add("#SBATCH --comment\u0085chronus\u00a0--ntasks=4\nsrun /a\u00a0/b\n")
	f.Add("#SBATCH --dependency=afterok:1:2:3\nsrun /a")
	f.Add("#SBATCH --mem=9999999999999T\nsrun /a\n")
	f.Add("#SBATCH --mem=8796093022207T\nsrun /a\n")
	f.Add("#SBATCH --mem=512K\nsrun /a\n")
	f.Fuzz(func(t *testing.T, script string) {
		desc, err := ParseBatchScript(script)
		ref, refErr := refParseBatchScript(script)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("%q: error %v, reference %v", script, err, refErr)
		}
		if !reflect.DeepEqual(desc, ref) {
			t.Fatalf("%q: parsed %+v, reference %+v", script, desc, ref)
		}
		if err != nil {
			return
		}
		if desc.MinFreqKHz > desc.MaxFreqKHz && desc.MaxFreqKHz != 0 {
			t.Fatalf("accepted inverted frequency range: %+v", desc)
		}
		if desc.TimeLimit < 0 {
			t.Fatalf("accepted negative time limit: %+v", desc)
		}
	})
}

// rejectPlugin is scribblePlugin that then refuses the job, so every
// submission reaches it at most once and nothing is queued.
type rejectPlugin struct{ scribblePlugin }

func (p *rejectPlugin) JobSubmit(ctx context.Context, desc *JobDesc, uid uint32) (time.Duration, error) {
	p.scribblePlugin.JobSubmit(ctx, desc, uid)
	return 0, errFail
}

// FuzzSubmitScriptMemo holds SubmitScript's parse memo to the parser:
// the sequence A, A, B, A through one controller hands the plugin chain
// exactly ParseBatchScript's description on every submission — whatever
// the plugin did to the one before — or returns exactly its error.
func FuzzSubmitScriptMemo(f *testing.F) {
	hpcg := RenderBatchScript("/opt/hpcg/xhpcg", 32, 2_200_000, 1)
	f.Add(hpcg, RenderBatchScript("/opt/hpcg/xhpcg", 16, 1_500_000, 2))
	f.Add(hpcg, hpcg)
	f.Add("#SBATCH --dependency=afterok:1:2\n#SBATCH -J dep\nsrun /a\n", hpcg)
	f.Add("#SBATCH --array=2-5\n#SBATCH --job-name=sweep\nsrun /a\n", "#SBATCH --array=3\nsrun /a\n")
	f.Add("#SBATCH --ntasks=lots\nsrun /a\n", hpcg)
	f.Add("#SBATCH --mem=9999999999999T\nsrun /a\n", "#SBATCH --mem=512K\nsrun /a\n")
	f.Add("#SBATCH --array=0-20000\nsrun /a\n", "")
	f.Add("", "srun\n")
	f.Fuzz(func(t *testing.T, a, b string) {
		_, c := newCluster(t, ecoConf(), 1)
		p := &rejectPlugin{}
		c.RegisterPlugin(p)
		for i, script := range []string{a, a, b, a} {
			want, wantErr := ParseBatchScript(script)
			p.seen = p.seen[:0]
			_, err := c.SubmitScript(script)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() || len(p.seen) != 0 {
					t.Fatalf("submission %d of %q: error %v, plugin saw %d; want the parse error %v", i+1, script, err, len(p.seen), wantErr)
				}
				continue
			}
			if err == nil || len(p.seen) != 1 || !reflect.DeepEqual(p.seen[0], want) {
				t.Fatalf("submission %d of %q: error %v, plugin saw %+v; want %+v", i+1, script, err, p.seen, want)
			}
		}
	})
}

// refParseBatchScript is ParseBatchScript as it was before it parsed in
// place: split the script into lines and each line into fields, and
// glue a long option to a value that follows it as a field. Only the
// --time range check is new. It is FuzzParseBatchScript's oracle.
func refParseBatchScript(script string) (JobDesc, error) {
	desc := JobDesc{ThreadsPerCPU: 1}
	for lineNo, raw := range strings.Split(script, "\n") {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "#SBATCH"):
			if err := refParseDirective(&desc, strings.TrimSpace(strings.TrimPrefix(line, "#SBATCH"))); err != nil {
				return JobDesc{}, fmt.Errorf("slurm: script line %d: %w", lineNo+1, err)
			}
		case strings.HasPrefix(line, "srun "):
			if err := refParseSrunLine(&desc, line); err != nil {
				return JobDesc{}, fmt.Errorf("slurm: script line %d: %w", lineNo+1, err)
			}
		}
	}
	return desc, nil
}

func refParseDirective(desc *JobDesc, directive string) error {
	for _, tok := range refSplitOptions(directive) {
		key, value, _ := strings.Cut(tok, "=")
		switch key {
		case "--ntasks", "-n":
			n, err := strconv.Atoi(value)
			if err != nil {
				return fmt.Errorf("bad %s value %q", key, value)
			}
			desc.NumTasks = n
		case "--cpu-freq":
			lo, hi, found := strings.Cut(value, "-")
			loKHz, err := strconv.Atoi(lo)
			if err != nil {
				return fmt.Errorf("bad --cpu-freq value %q", value)
			}
			desc.MinFreqKHz = loKHz
			desc.MaxFreqKHz = loKHz
			if found {
				hiKHz, err := strconv.Atoi(hi)
				if err != nil {
					return fmt.Errorf("bad --cpu-freq value %q", value)
				}
				desc.MaxFreqKHz = hiKHz
			}
			if desc.MinFreqKHz <= 0 || desc.MaxFreqKHz < desc.MinFreqKHz {
				return fmt.Errorf("bad --cpu-freq range %q", value)
			}
		case "--comment":
			desc.Comment = strings.Trim(value, `"'`)
		case "--job-name", "-J":
			desc.Name = value
		case "--partition", "-p":
			desc.Partition = value
		case "--time", "-t":
			minutes, err := strconv.Atoi(value)
			if err != nil || minutes < 0 || int64(minutes) > math.MaxInt64/int64(time.Minute) {
				return fmt.Errorf("bad --time value %q", value)
			}
			desc.TimeLimit = time.Duration(minutes) * time.Minute
		case "--deadline":
			t, err := time.Parse(time.RFC3339, value)
			if err != nil {
				return fmt.Errorf("bad --deadline value %q", value)
			}
			desc.Deadline = t
		case "--array", "-a", "--dependency", "-d", "--begin", "--mem":
			return fmt.Errorf("unsupported %s", key)
		case "--nodes", "-N":
			if value != "1" {
				return fmt.Errorf("only --nodes=1 supported, got %q", value)
			}
		}
	}
	return nil
}

func refParseSrunLine(desc *JobDesc, line string) error {
	fields := strings.Fields(line)
	for _, tok := range fields[1:] {
		key, value, hasValue := strings.Cut(tok, "=")
		switch key {
		case "--ntasks-per-core":
			if !hasValue {
				return fmt.Errorf("--ntasks-per-core needs a value")
			}
			n, err := strconv.Atoi(value)
			if err != nil {
				return fmt.Errorf("bad --ntasks-per-core value %q", value)
			}
			desc.ThreadsPerCPU = n
		case "--mpi":
		default:
			if !strings.HasPrefix(tok, "-") {
				desc.BinaryPath = tok
			}
		}
	}
	if desc.BinaryPath == "" {
		return fmt.Errorf("srun line has no executable")
	}
	return nil
}

// refSplitOptions splits a directive like `--ntasks=32 --comment
// "chronus"` into tokens, gluing a space-separated value to its flag.
func refSplitOptions(s string) []string {
	fields := strings.Fields(s)
	var out []string
	for i := 0; i < len(fields); i++ {
		tok := fields[i]
		if strings.HasPrefix(tok, "--") && !strings.Contains(tok, "=") && i+1 < len(fields) && !strings.HasPrefix(fields[i+1], "-") {
			tok = tok + "=" + fields[i+1]
			i++
		}
		out = append(out, tok)
	}
	return out
}

func FuzzParseConf(f *testing.F) {
	f.Add("ClusterName=aau\nJobSubmitPlugins=eco\n")
	f.Add("# comment only\n")
	f.Add("PluginBudget=2s\nDefaultTime=60\n")
	f.Add("JobSubmitPlugins=a, b,,c\n")
	f.Add("DefaultTime=-5\n")
	f.Add("PluginBudget=-1s\n")
	f.Add("DefaultTime=1e3\n")
	f.Fuzz(func(t *testing.T, text string) {
		conf, err := ParseConf(text)
		if err != nil {
			return
		}
		if conf.PluginBudget < 0 || conf.DefaultTimeLimit < 0 {
			t.Fatalf("accepted negative durations: %+v", conf)
		}
		for _, p := range conf.JobSubmitPlugins {
			if p == "" {
				t.Fatalf("empty plugin name survived parsing: %q", text)
			}
		}
	})
}
