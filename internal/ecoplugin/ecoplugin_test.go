package ecoplugin

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"ecosched/internal/hw"
	"ecosched/internal/perfmodel"
	"ecosched/internal/procfs"
	"ecosched/internal/settings"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/workload"
)

func TestSimpleHashMatchesCReference(t *testing.T) {
	// Hand-computed from the paper's Listing 3 semantics:
	// hash = 53871; hash = hash*33 + c for each byte.
	if got := SimpleHash(""); got != 53871 {
		t.Fatalf("SimpleHash(\"\") = %d, want seed 53871", got)
	}
	if got := SimpleHash("a"); got != 53871*33+'a' {
		t.Fatalf("SimpleHash(\"a\") = %d, want %d", got, 53871*33+'a')
	}
	if got := SimpleHash("ab"); got != (53871*33+'a')*33+'b' {
		t.Fatalf("SimpleHash(\"ab\") = %d", got)
	}
}

func TestSimpleHashDistinguishesInputs(t *testing.T) {
	if SimpleHash("AMD EPYC 7502P") == SimpleHash("AMD EPYC 7502") {
		t.Fatal("hash collision on near-identical strings")
	}
}

func newRig(t testing.TB) (*simclock.Sim, *hw.Node, procfs.FileReader) {
	t.Helper()
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	return sim, node, procfs.New(node)
}

func TestSystemHashStableAndSensitive(t *testing.T) {
	_, node, fs := newRig(t)
	h1, err := SystemHash(fs)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := SystemHash(fs)
	if h1 != h2 {
		t.Fatal("system hash not stable")
	}
	// A different machine (different RAM) hashes differently.
	sim2 := simclock.New()
	spec := hw.DefaultSpec()
	spec.RAMGB = 128
	other := procfs.New(hw.NewNode(sim2, spec, perfmodel.Default(), 2))
	h3, _ := SystemHash(other)
	if h1 == h3 {
		t.Fatal("different RAM size produced the same system hash")
	}
	_ = node
}

type errFS struct{}

func (errFS) ReadFile(path string) ([]byte, error) { return nil, fmt.Errorf("no procfs here") }

func TestSystemHashErrorHandling(t *testing.T) {
	if _, err := SystemHash(errFS{}); err == nil {
		t.Fatal("unreadable procfs accepted")
	}
}

// fakePredictor returns a fixed configuration.
type fakePredictor struct {
	cfg     perfmodel.Config
	latency time.Duration
	err     error
	calls   int
	lastReq PredictRequest
}

func (f *fakePredictor) Predict(ctx context.Context, req PredictRequest) (PredictResult, error) {
	f.calls++
	f.lastReq = req
	return PredictResult{Config: f.cfg, Latency: f.latency, Source: SourcePreloaded}, f.err
}

func newPlugin(t *testing.T, pred *fakePredictor, state settings.State) (*Plugin, *settings.MemStore) {
	t.Helper()
	_, _, fs := newRig(t)
	return newPluginOn(t, fs, pred, state)
}

// newPluginOn is newPlugin over a file system the test keeps a handle
// on (to reconfigure its node, or to wrap it in fault injection).
func newPluginOn(t *testing.T, fs procfs.FileReader, pred *fakePredictor, state settings.State) (*Plugin, *settings.MemStore) {
	t.Helper()
	st := settings.NewMemStore()
	s := settings.Defaults()
	s.State = state
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	p, err := New(fs, pred, st)
	if err != nil {
		t.Fatal(err)
	}
	return p, st
}

func TestNewRequiresCollaborators(t *testing.T) {
	if _, err := New(nil, nil, nil); err == nil {
		t.Fatal("nil collaborators accepted")
	}
}

func TestUserModeRequiresOptIn(t *testing.T) {
	pred := &fakePredictor{cfg: perfmodel.BestConfig()}
	p, _ := newPlugin(t, pred, settings.StateUser)

	plain := slurm.JobDesc{BinaryPath: "/opt/hpcg/xhpcg", NumTasks: 32, MaxFreqKHz: 2_500_000}
	if _, err := p.JobSubmit(context.Background(), &plain, 1000); err != nil {
		t.Fatal(err)
	}
	if plain.MaxFreqKHz != 2_500_000 || pred.calls != 0 {
		t.Fatal("plugin touched a job without the chronus comment")
	}

	optIn := slurm.JobDesc{BinaryPath: "/opt/hpcg/xhpcg", NumTasks: 32, MaxFreqKHz: 2_500_000, Comment: OptInComment}
	if _, err := p.JobSubmit(context.Background(), &optIn, 1000); err != nil {
		t.Fatal(err)
	}
	if optIn.NumTasks != 32 || optIn.MaxFreqKHz != 2_200_000 || optIn.MinFreqKHz != 2_200_000 || optIn.ThreadsPerCPU != 1 {
		t.Fatalf("rewrite wrong: %+v", optIn)
	}
	if p.Rewritten != 1 || p.Submissions != 2 {
		t.Fatalf("stats: %d rewritten / %d submissions", p.Rewritten, p.Submissions)
	}
}

func TestActiveModeRewritesEverything(t *testing.T) {
	pred := &fakePredictor{cfg: perfmodel.BestConfig()}
	p, _ := newPlugin(t, pred, settings.StateActive)
	desc := slurm.JobDesc{BinaryPath: "/bin/app", NumTasks: 8, MaxFreqKHz: 2_500_000}
	p.JobSubmit(context.Background(), &desc, 1000)
	if desc.MaxFreqKHz != 2_200_000 {
		t.Fatal("active mode did not rewrite a non-opted job")
	}
}

func TestDeactivatedModeNeverRewrites(t *testing.T) {
	pred := &fakePredictor{cfg: perfmodel.BestConfig()}
	p, _ := newPlugin(t, pred, settings.StateDeactivated)
	desc := slurm.JobDesc{BinaryPath: "/bin/app", Comment: OptInComment, MaxFreqKHz: 2_500_000}
	p.JobSubmit(context.Background(), &desc, 1000)
	if desc.MaxFreqKHz != 2_500_000 || pred.calls != 0 {
		t.Fatal("deactivated plugin still rewrote")
	}
}

func TestPredictorErrorFailsOpen(t *testing.T) {
	pred := &fakePredictor{err: fmt.Errorf("no model loaded")}
	p, _ := newPlugin(t, pred, settings.StateActive)
	desc := slurm.JobDesc{BinaryPath: "/bin/app", NumTasks: 16, MaxFreqKHz: 2_500_000}
	lat, err := p.JobSubmit(context.Background(), &desc, 1000)
	if err != nil {
		t.Fatalf("prediction failure must not reject the job: %v", err)
	}
	if desc.NumTasks != 16 || desc.MaxFreqKHz != 2_500_000 {
		t.Fatal("failed prediction still rewrote the job")
	}
	if p.LastErr == nil {
		t.Fatal("error not recorded")
	}
	if lat <= 0 {
		t.Fatal("latency not reported")
	}
}

func TestPredictorReceivesHashes(t *testing.T) {
	pred := &fakePredictor{cfg: perfmodel.BestConfig()}
	p, _ := newPlugin(t, pred, settings.StateActive)
	desc := slurm.JobDesc{BinaryPath: "/opt/hpcg/xhpcg"}
	p.JobSubmit(context.Background(), &desc, 1000)
	if pred.lastReq.BinaryHash != BinaryHash("/opt/hpcg/xhpcg") {
		t.Fatalf("binary hash = %s", pred.lastReq.BinaryHash)
	}
	if pred.lastReq.SystemHash == "" {
		t.Fatal("system hash empty")
	}
	if pred.lastReq.Budget != 0 {
		t.Fatalf("budget %v leaked into an unbudgeted plugin", pred.lastReq.Budget)
	}
}

func TestBudgetThreadedToPredictor(t *testing.T) {
	pred := &fakePredictor{cfg: perfmodel.BestConfig()}
	_, _, fs := newRig(t)
	st := settings.NewMemStore()
	s := settings.Defaults()
	s.State = settings.StateActive
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	p, err := New(fs, pred, st, WithBudget(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	desc := slurm.JobDesc{BinaryPath: "/bin/app"}
	p.JobSubmit(context.Background(), &desc, 1000)
	if want := 100*time.Millisecond - hashLatency; pred.lastReq.Budget != want {
		t.Fatalf("predictor budget = %v, want %v (configured minus hash cost)", pred.lastReq.Budget, want)
	}
}

func TestBudgetExceededFallsBackUnmodified(t *testing.T) {
	pred := &fakePredictor{err: fmt.Errorf("sweep too slow: %w", ErrBudgetExceeded)}
	p, _ := newPlugin(t, pred, settings.StateActive)
	desc := slurm.JobDesc{BinaryPath: "/bin/app", NumTasks: 16, MaxFreqKHz: 2_500_000}
	if _, err := p.JobSubmit(context.Background(), &desc, 1000); err != nil {
		t.Fatalf("budget overrun must not reject the job: %v", err)
	}
	if desc.NumTasks != 16 || desc.MaxFreqKHz != 2_500_000 {
		t.Fatal("budget overrun still rewrote the job")
	}
	if p.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", p.Fallbacks)
	}
}

// panicPredictor simulates a predictor bug (poisoned model, nil deref
// deep in the optimizer): the plugin must treat it like any other
// prediction failure and fail open.
type panicPredictor struct{}

func (panicPredictor) Predict(context.Context, PredictRequest) (PredictResult, error) {
	panic("poisoned model")
}

func TestPredictorPanicFailsOpen(t *testing.T) {
	_, _, fs := newRig(t)
	st := settings.NewMemStore()
	s := settings.Defaults()
	s.State = settings.StateActive
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	p, err := New(fs, panicPredictor{}, st)
	if err != nil {
		t.Fatal(err)
	}
	desc := slurm.JobDesc{BinaryPath: "/bin/app", NumTasks: 16, MaxFreqKHz: 2_500_000}
	lat, err := p.JobSubmit(context.Background(), &desc, 1000)
	if err != nil {
		t.Fatalf("predictor panic must not reject the job: %v", err)
	}
	if lat <= 0 {
		t.Fatal("latency not reported after recovery")
	}
	if desc.NumTasks != 16 || desc.MaxFreqKHz != 2_500_000 {
		t.Fatal("panicking prediction still rewrote the job")
	}
	if p.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", p.Fallbacks)
	}
	if p.LastErr == nil || !strings.Contains(p.LastErr.Error(), "panic") {
		t.Fatalf("LastErr = %v, want the recovered panic", p.LastErr)
	}
}

func TestLatencyIncludesPredictor(t *testing.T) {
	pred := &fakePredictor{cfg: perfmodel.BestConfig(), latency: 300 * time.Millisecond}
	p, _ := newPlugin(t, pred, settings.StateActive)
	desc := slurm.JobDesc{BinaryPath: "/bin/app"}
	lat, _ := p.JobSubmit(context.Background(), &desc, 1000)
	if lat < 300*time.Millisecond {
		t.Fatalf("latency %v does not include predictor time", lat)
	}
}

// End-to-end: plugin inside the simulated Slurm, driving the node to
// the paper's best configuration.
func TestPluginInsideSlurm(t *testing.T) {
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	conf, err := slurm.ParseConf("JobSubmitPlugins=eco\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := slurm.NewCluster(sim, conf, slurm.WithNodes(node))
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterWorkload("/opt/hpcg/xhpcg", workload.FixedWork("hpcg", perfmodel.Default().JobGFLOP))

	st := settings.NewMemStore()
	s := settings.Defaults()
	s.State = settings.StateUser
	st.Save(s)
	plugin, err := New(procfs.New(node), &fakePredictor{cfg: perfmodel.BestConfig(), latency: 10 * time.Millisecond}, st)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterPlugin(plugin)

	script := "#!/bin/bash\n#SBATCH --ntasks=32\n#SBATCH --comment \"chronus\"\nsrun /opt/hpcg/xhpcg\n"
	job, err := c.SubmitScript(script)
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitFor(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != slurm.StateCompleted {
		t.Fatalf("job %s (%s)", done.State, done.Reason)
	}
	rec, _ := c.Accounting().Record(done.ID)
	if rec.FreqKHz != 2_200_000 {
		t.Fatalf("job ran at %d kHz, plugin should have set 2.2 GHz", rec.FreqKHz)
	}
	eff := rec.GFLOPSPerWatt()
	if eff < 0.047 || eff > 0.050 {
		t.Fatalf("efficiency %.5f, want ≈0.0488 (Table 1 best)", eff)
	}
}
