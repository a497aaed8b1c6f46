package ecosched

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"ecosched/internal/leakcheck"
	"ecosched/internal/workload"
)

func loadSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, err := workload.LoadSpec(filepath.Join("specs", name))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestClusterReplayFidelity is the determinism contract on the reduced
// spec: two same-seed runs agree, the recorded log replays to the same
// report, and two recordings are byte-identical.
func TestClusterReplayFidelity(t *testing.T) {
	spec := loadSpec(t, "race-smoke.json")

	var log1, log2 bytes.Buffer
	run1, err := RunClusterSpec(spec, &log1)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := RunClusterSpec(spec, &log2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run1, run2) {
		t.Fatalf("same-seed runs diverge:\n%+v\nvs\n%+v", run1, run2)
	}
	if !bytes.Equal(log1.Bytes(), log2.Bytes()) {
		t.Fatal("same-seed recordings are not byte-identical")
	}

	replayed, err := ReplayClusterLog(bytes.NewReader(log1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run1, replayed) {
		t.Fatalf("replay diverges from recorded run:\n%+v\nvs\n%+v", run1, replayed)
	}

	var text1, text2 bytes.Buffer
	run1.WriteText(&text1)
	replayed.WriteText(&text2)
	if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
		t.Fatal("rendered reports differ")
	}

	if run1.Submissions != spec.MaxSubmissions {
		t.Fatalf("submissions = %d, want %d", run1.Submissions, spec.MaxSubmissions)
	}
	if run1.Totals.Completed == 0 {
		t.Fatal("no jobs completed")
	}
	if run1.Totals.SystemKJ <= 0 || run1.ClusterSystemKJ < run1.Totals.SystemKJ {
		t.Fatalf("energy accounting implausible: jobs %.3f kJ, cluster %.3f kJ",
			run1.Totals.SystemKJ, run1.ClusterSystemKJ)
	}
	// Jobs either completed, failed (TimeLimit) or were rejected —
	// nothing may be lost.
	if got := run1.Totals.Jobs + run1.Rejected; got != run1.Submissions {
		t.Fatalf("accounted %d of %d submissions", got, run1.Submissions)
	}
	for _, p := range run1.Partitions {
		if p.Submitted == 0 {
			t.Errorf("partition %s saw no traffic", p.Name)
		}
	}
}

// TestClusterLanesEquivalence is the parallel-lane determinism
// contract: the report, its rendered text, and the recorded submission
// log are byte-identical at every -lanes setting, because lane
// concurrency only changes which goroutine advances a partition
// between window barriers, never the order of anything observable.
// (The error exits are TestClusterPipelineExits'.)
func TestClusterLanesEquivalence(t *testing.T) {
	defer leakcheck.Check(t)()
	spec := loadSpec(t, "race-smoke.json")

	type result struct {
		report *ClusterReport
		log    []byte
		text   []byte
	}
	var base result
	for i, lanes := range []int{1, 4, 8} {
		var log bytes.Buffer
		run, err := RunClusterSpec(spec, &log, WithLanes(lanes))
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		var text bytes.Buffer
		run.WriteText(&text)
		if i == 0 {
			base = result{report: run, log: log.Bytes(), text: text.Bytes()}
			continue
		}
		if !reflect.DeepEqual(base.report, run) {
			t.Errorf("lanes=%d report diverges from lanes=1:\n%+v\nvs\n%+v", lanes, base.report, run)
		}
		if !bytes.Equal(base.log, log.Bytes()) {
			t.Errorf("lanes=%d recorded log is not byte-identical to lanes=1", lanes)
		}
		if !bytes.Equal(base.text, text.Bytes()) {
			t.Errorf("lanes=%d rendered report is not byte-identical to lanes=1", lanes)
		}
	}

	// Replay under a different lane count than the recording ran with.
	replayed, err := ReplayClusterLog(bytes.NewReader(base.log), WithLanes(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.report, replayed) {
		t.Fatalf("lanes=8 replay diverges from lanes=1 run:\n%+v\nvs\n%+v", base.report, replayed)
	}
}

// TestDifferentSeedDiverges guards against a generator that ignores
// its seed.
func TestDifferentSeedDiverges(t *testing.T) {
	spec := loadSpec(t, "race-smoke.json")
	spec.MaxSubmissions = 500
	a, err := RunClusterSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed++
	b, err := RunClusterSpec(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Totals, b.Totals) {
		t.Fatal("different seeds produced identical accounting totals")
	}
}

// TestCommittedSpecsParse keeps the committed spec files valid and the
// acceptance spec at its promised scale.
func TestCommittedSpecsParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("specs", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec files found: %v", err)
	}
	for _, f := range files {
		if _, err := workload.LoadSpec(f); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
	big := loadSpec(t, "cluster-1k-1m.json")
	if n := big.TotalNodes(); n < 1000 {
		t.Errorf("acceptance spec has %d nodes, want >= 1000", n)
	}
	if len(big.Cluster.Partitions) < 2 {
		t.Error("acceptance spec needs >= 2 partitions")
	}
	if big.MaxSubmissions < 1_000_000 {
		t.Errorf("acceptance spec caps at %d submissions, want >= 1M", big.MaxSubmissions)
	}
}
