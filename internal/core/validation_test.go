package core

import (
	"strings"
	"testing"

	"ecosched/internal/blob"
	"ecosched/internal/hw"
	"ecosched/internal/ipmi"
	"ecosched/internal/perfmodel"
	"ecosched/internal/settings"
	"ecosched/internal/simclock"
	"ecosched/internal/slurm"
	"ecosched/internal/sysinfo"
)

// Every Deps field must be individually validated with a message that
// names the missing collaborator.
func TestDepsValidationMessages(t *testing.T) {
	full := newRig(t).chronus.deps

	cases := []struct {
		name string
		mut  func(*Deps)
	}{
		{"repository", func(d *Deps) { d.Repo = nil }},
		{"blob", func(d *Deps) { d.Blob = nil }},
		{"settings", func(d *Deps) { d.Settings = nil }},
		{"system info", func(d *Deps) { d.SysInfo = nil }},
		{"file system", func(d *Deps) { d.FS = nil }},
		{"runner", func(d *Deps) { d.Runner = nil }},
		// The sweep has one engine: without a node provisioner a
		// deployment cannot benchmark, and New says so up front.
		{"provisioner", func(d *Deps) { d.Provision = nil }},
		{"local model directory", func(d *Deps) { d.LocalDir = "" }},
		{"clock", func(d *Deps) { d.Now = nil }},
	}
	for _, tc := range cases {
		deps := full
		tc.mut(&deps)
		_, err := New(deps)
		if err == nil {
			t.Errorf("%s: missing collaborator accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), strings.Fields(tc.name)[0]) {
			t.Errorf("%s: error %q does not name the collaborator", tc.name, err)
		}
	}
	if _, err := New(full); err != nil {
		t.Fatalf("full deps rejected: %v", err)
	}
}

func TestRunnerConstructorsValidate(t *testing.T) {
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	c, err := slurm.NewCluster(sim, slurm.DefaultConf(), slurm.WithNodes(node))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHPCGRunner(nil, "/bin/x", 1); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := NewHPCGRunner(c, "", 1); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := NewHPCGRunner(c, "/bin/x", 0); err == nil {
		t.Error("zero work accepted")
	}
	if _, err := NewStreamRunner(nil, "/bin/x"); err == nil {
		t.Error("stream: nil controller accepted")
	}
	if _, err := NewStreamRunner(c, ""); err == nil {
		t.Error("stream: empty path accepted")
	}
	r, err := NewHPCGRunner(c, "/bin/x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "hpcg" || r.BinaryPath() != "/bin/x" {
		t.Fatalf("runner identity: %s %s", r.Name(), r.BinaryPath())
	}
	s, err := NewStreamRunner(c, "/bin/s")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "stream" || s.BinaryPath() != "/bin/s" {
		t.Fatalf("stream identity: %s %s", s.Name(), s.BinaryPath())
	}
}

// Runner.Run must surface scheduler rejections (e.g. a plugin chain
// that errors) rather than hanging or panicking.
func TestHPCGRunnerSubmitRejection(t *testing.T) {
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	conf, _ := slurm.ParseConf("JobSubmitPlugins=eco\n") // plugin never registered
	c, err := slurm.NewCluster(sim, conf, slurm.WithNodes(node))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewHPCGRunner(c, "/bin/x", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(perfmodel.StandardConfig()); err == nil {
		t.Fatal("submit rejection not surfaced")
	}
}

// Runner.Run must surface a job that fails (time limit) as an error.
func TestHPCGRunnerJobFailure(t *testing.T) {
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	conf := slurm.DefaultConf()
	conf.DefaultTimeLimit = 1 // nanosecond — every job times out
	c, err := slurm.NewCluster(sim, conf, slurm.WithNodes(node))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewHPCGRunner(c, "/bin/x", perfmodel.Default().JobGFLOP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(perfmodel.StandardConfig()); err == nil {
		t.Fatal("failed job not surfaced")
	}
}

func TestIPMISystemServiceNeedsAccess(t *testing.T) {
	sim := simclock.New()
	node := hw.NewNode(sim, hw.DefaultSpec(), perfmodel.Default(), 1)
	bmc := ipmi.NewBMC(node) // no chmod
	if _, err := NewIPMISystemService(sim, bmc, node, false); err == nil {
		t.Fatal("locked /dev/ipmi0 opened without root")
	}
	if _, err := NewIPMISystemService(sim, bmc, node, true); err != nil {
		t.Fatalf("root open failed: %v", err)
	}
}

// Unused-collaborator guard: constructing Chronus with valid deps and
// immediately discarding services must not mutate any storage.
func TestNewHasNoSideEffects(t *testing.T) {
	st := settings.NewMemStore()
	before, _ := st.Load()
	r := newRig(t)
	deps := r.chronus.deps
	deps.Settings = st
	deps.Blob = blob.NewMemory()
	if _, err := New(deps); err != nil {
		t.Fatal(err)
	}
	after, _ := st.Load()
	if before.State != after.State || len(after.LocalModels) != 0 {
		t.Fatal("construction mutated settings")
	}
	keys, _ := deps.Blob.List()
	if len(keys) != 0 {
		t.Fatal("construction wrote blobs")
	}
	_ = sysinfo.SystemInfo{}
}
