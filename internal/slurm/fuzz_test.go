package slurm

import "testing"

// Fuzz targets: the two text surfaces that parse untrusted input — the
// sbatch script and slurm.conf. Neither may panic, and accepted
// scripts must produce internally consistent descriptions.

func FuzzParseBatchScript(f *testing.F) {
	f.Add(RenderBatchScript("/opt/hpcg/xhpcg", 32, 2_200_000, 1))
	f.Add("#SBATCH --comment \"chronus\"\nsrun /bin/app\n")
	f.Add("#SBATCH --array=0-15\n#SBATCH --time=90\nsrun --mpi=pmix_v4 /a\n")
	f.Add("#SBATCH --cpu-freq=1500000-2500000\nsrun /a\n")
	f.Add("#SBATCH\nsrun\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, script string) {
		desc, err := ParseBatchScript(script)
		if err != nil {
			return
		}
		if desc.ArrayHi < desc.ArrayLo {
			t.Fatalf("accepted inverted array range: %+v", desc)
		}
		if desc.MinFreqKHz > desc.MaxFreqKHz && desc.MaxFreqKHz != 0 {
			t.Fatalf("accepted inverted frequency range: %+v", desc)
		}
	})
}

func FuzzParseConf(f *testing.F) {
	f.Add("ClusterName=aau\nJobSubmitPlugins=eco\n")
	f.Add("# comment only\n")
	f.Add("PluginBudget=2s\nDefaultTime=60\n")
	f.Add("JobSubmitPlugins=a, b,,c\n")
	f.Add("DefaultTime=-5\n")
	f.Add("PluginBudget=-1s\n")
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
