package ecoplugin

import (
	"context"
	"path/filepath"
	"testing"

	"ecosched/internal/fault"
	"ecosched/internal/hw"
	"ecosched/internal/metrics"
	"ecosched/internal/perfmodel"
	"ecosched/internal/procfs"
	"ecosched/internal/settings"
	"ecosched/internal/slurm"
)

// referenceSystemHash is the system identifier as the plugin computed
// it before the hash was streamed: concatenate the two files as
// strings, hash the result. It is the oracle for SystemHash.
func referenceSystemHash(t *testing.T, fs procfs.FileReader) string {
	t.Helper()
	cpuinfo, err := fs.ReadFile(procfs.PathCPUInfo)
	if err != nil {
		t.Fatal(err)
	}
	meminfo, err := fs.ReadFile(procfs.PathMemInfo)
	if err != nil {
		t.Fatal(err)
	}
	return HashString(SimpleHash(string(cpuinfo) + string(meminfo)))
}

func TestSystemHashMatchesConcatenatedReference(t *testing.T) {
	_, node, fs := newRig(t)
	seen := map[string]bool{}
	for _, gov := range []hw.GovernorKind{hw.GovernorPerformance, hw.GovernorPowersave, hw.GovernorOndemand, hw.GovernorUserspace} {
		if err := node.SetGovernor(gov); err != nil {
			t.Fatal(err)
		}
		for _, khz := range node.Spec().FrequenciesKHz {
			if err := node.SetUserspaceFreq(khz); err != nil {
				t.Fatal(err)
			}
			got, err := SystemHash(fs)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceSystemHash(t, fs); got != want {
				t.Fatalf("governor %s pin %d kHz: SystemHash = %s, reference = %s", gov, khz, got, want)
			}
			seen[got] = true
		}
	}
	if want := len(node.Spec().FrequenciesKHz); len(seen) != want {
		t.Fatalf("saw %d distinct hashes over the ladder, want %d (one per frequency)", len(seen), want)
	}
}

// activePlugin builds a plugin in active mode over fs whose predictor
// records the system hash it was asked about.
func activePlugin(t *testing.T, fs procfs.FileReader) (*Plugin, *fakePredictor) {
	t.Helper()
	pred := &fakePredictor{cfg: perfmodel.BestConfig()}
	p, _ := newPluginOn(t, fs, pred, settings.StateActive)
	return p, pred
}

func submitHash(t *testing.T, p *Plugin, pred *fakePredictor) string {
	t.Helper()
	desc := slurm.JobDesc{BinaryPath: "/opt/hpcg/xhpcg", NumTasks: 32}
	if _, err := p.JobSubmit(context.Background(), &desc, 1000); err != nil {
		t.Fatal(err)
	}
	return pred.lastReq.SystemHash
}

// The plugin reuses a hash only for bytes equal to the ones it hashed:
// a frequency change must reach the predictor on the very next submit,
// and moving back must give the first hash again.
func TestPluginHashFollowsFrequencyChanges(t *testing.T) {
	_, node, fs := newRig(t)
	p, pred := activePlugin(t, fs)

	atMax := submitHash(t, p, pred)
	if again := submitHash(t, p, pred); again != atMax {
		t.Fatalf("unchanged files hashed to %s then %s", atMax, again)
	}
	if err := node.SetGovernor(hw.GovernorPowersave); err != nil {
		t.Fatal(err)
	}
	atMin := submitHash(t, p, pred)
	if atMin == atMax {
		t.Fatal("plugin served the old hash after the governor moved the frequency")
	}
	if want := referenceSystemHash(t, fs); atMin != want {
		t.Fatalf("hash after governor change = %s, reference = %s", atMin, want)
	}
	if err := node.SetGovernor(hw.GovernorPerformance); err != nil {
		t.Fatal(err)
	}
	if back := submitHash(t, p, pred); back != atMax {
		t.Fatalf("hash after moving back = %s, want the original %s", back, atMax)
	}
}

// A truncated /proc read must hash as what was read — never as the
// remembered clean file — and the next clean read must give the
// original hash, with both files still read on every submission.
func TestPluginHashSeesPartialRead(t *testing.T) {
	_, _, raw := newRig(t)
	reg := metrics.New()
	inj := fault.New(7, fault.WithMetrics(reg))
	p, pred := activePlugin(t, fault.FileReader(raw, inj))

	clean := submitHash(t, p, pred)
	inj.Use(fault.Rule{Op: fault.OpProcRead, Mode: fault.ModePartial, Times: 1})
	torn := submitHash(t, p, pred)
	if torn == clean {
		t.Fatal("a truncated cpuinfo hashed like the whole file")
	}
	if after := submitHash(t, p, pred); after != clean {
		t.Fatalf("hash after the fault cleared = %s, want the original %s", after, clean)
	}
	if got := reg.Snapshot().Counters; len(got) != 1 || got["chronus.fault.injected."+fault.OpProcRead] != 1 {
		t.Fatalf("counters = %v, want one procfs fault", got)
	}

	// An unreadable file still fails open, remembered hash or not.
	inj.Use(fault.Rule{Op: fault.OpProcRead, Mode: fault.ModeError, Times: 1})
	before := p.Fallbacks
	desc := slurm.JobDesc{BinaryPath: "/opt/hpcg/xhpcg", NumTasks: 32}
	if _, err := p.JobSubmit(context.Background(), &desc, 1000); err != nil {
		t.Fatal(err)
	}
	if p.Fallbacks != before+1 || desc.NumTasks != 32 {
		t.Fatalf("unreadable procfs: fallbacks %d→%d, NumTasks %d; want one fallback and an untouched job", before, p.Fallbacks, desc.NumTasks)
	}
}

// cacheHitPredictor answers like Chronus's decoded-model cache: no
// I/O, no allocation.
type cacheHitPredictor struct{ cfg perfmodel.Config }

func (c cacheHitPredictor) Predict(context.Context, PredictRequest) (PredictResult, error) {
	return PredictResult{Config: c.cfg, Source: SourceCache}, nil
}

// BenchmarkEcoSubmitCacheHit is the paper's budgeted path at its
// cheapest: an opted-in job, settings in a real file, the prediction
// already cached. What remains per call is asking the settings store's
// watch whether the file changed and reading the two /proc files;
// `make alloc-check` pins the allocation count.
func BenchmarkEcoSubmitCacheHit(b *testing.B) {
	_, _, fs := newRig(b)
	st := settings.NewEtcStore(filepath.Join(b.TempDir(), "etc", "chronus", "settings.json"))
	b.Cleanup(func() { st.Close() })
	s := settings.Defaults()
	s.SetModel(settings.LocalModel{ModelID: 1, SystemID: 1, SystemHash: "1", AppHash: "2", Optimizer: "brute-force", Path: "/var/chronus/model.json"})
	if err := st.Save(s); err != nil {
		b.Fatal(err)
	}
	p, err := New(fs, cacheHitPredictor{cfg: perfmodel.BestConfig()}, st)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	template := slurm.JobDesc{BinaryPath: "/opt/hpcg/xhpcg", NumTasks: 32, Comment: OptInComment}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		desc := template
		if _, err := p.JobSubmit(ctx, &desc, 1000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if p.Rewritten != p.Submissions || p.Fallbacks != 0 {
		b.Fatalf("%d of %d submissions rewritten, %d fell back", p.Rewritten, p.Submissions, p.Fallbacks)
	}
}
