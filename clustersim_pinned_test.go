package ecosched

import (
	"bytes"
	"hash/fnv"
	"path/filepath"
	"testing"

	"ecosched/internal/workload"
)

// pinSeeds are the streams the pinned digests cover: the benchmark's
// two named seeds and eight derived the way bench/ derives a run's
// streams (splitmix64 finaliser over seed 42).
func pinSeeds() []uint64 {
	seeds := []uint64{42, 7}
	for i := uint64(1); i <= 8; i++ {
		z := 42 + i*0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		seeds = append(seeds, z^(z>>31))
	}
	return seeds
}

// pinnedDigests holds FNV-64a of the rendered report followed by the
// recorded submission log, per spec in pinSeeds order. Recorded at
// 43b1a84 — before the policy value memoised its signal reads, cached a
// job's release bound and indexed pairable primaries — and unchanged by
// that change: the gate for any edit to how a policy decision is
// derived. (bench/'s digest covers one stream per run; this covers ten
// per spec, at both lane counts.)
var pinnedDigests = map[string][]uint64{
	"bench/specs/cluster-policy.json": {
		0xa958ec1bc706b79e, 0x45ecd1a66fd6acf6, 0x8dcf320b66e21c6a, 0xef5e657e04e57297, 0x4e96f6e1d7631cd7,
		0x6df612ebc5106d2b, 0x5f77487d940bf408, 0x3092df129d6b26ac, 0xb0a368c4c922458c, 0xf5b1e5e964527873,
	},
	"specs/powercap-smoke.json": {
		0x2635a8b7aae60051, 0xefa0c5cbdfe71b32, 0xad0a78024eef0def, 0x5383d85fab3710a2, 0x7e77f7cd6b5b25be,
		0x4669cf505e3b15a0, 0x619474db50da49bc, 0x6847c51617801bdc, 0x089fbe1c304c07e7, 0xc97dbbe6ece71bd9,
	},
}

// TestClusterPolicyPinnedOutputs runs both full-policy specs at every
// pinned seed, serial and two-lane, and compares report + log against
// the recorded digests.
func TestClusterPolicyPinnedOutputs(t *testing.T) {
	for file, want := range pinnedDigests {
		spec, err := workload.LoadSpec(filepath.FromSlash(file))
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range pinSeeds() {
			spec.Seed = seed
			for _, lanes := range []int{1, 2} {
				var log bytes.Buffer
				rep, err := RunClusterSpec(spec, &log, WithLanes(lanes))
				if err != nil {
					t.Fatalf("%s seed %d lanes %d: %v", file, seed, lanes, err)
				}
				h := fnv.New64a()
				rep.WriteText(h)
				h.Write(log.Bytes())
				if got := h.Sum64(); got != want[i] {
					t.Errorf("%s seed %d lanes %d: digest %#016x, pinned %#016x", file, seed, lanes, got, want[i])
				}
			}
		}
	}
}

// TestClusterPolicyWorkCounters states the policy path's work as a
// deterministic fact: on the benchmark's saturated spec (seed 42, one
// lane) the deferral signal is read at most once per scheduling pass —
// 3,941 of them at 43b1a84, which read it 518,001 times for its 3,783
// distinct instants, +17 at settled records' early release bounds —
// place examines pairable primaries only (57,999; 43b1a84 walked
// 2,189,445 nodes to find them), and a pass skips every job of the
// settled record whose verdict the live state repeats: 25,491 queued-job
// visits, where walking every pass's whole window makes 548,993 and
// skipping only on an unchanged epoch 327,991. Skipped jobs are not
// probed either: place examines 25,258 primaries (48,212 with the epoch
// skip alone). All three are pinned exactly: a pass that skips more
// than the full walk would, or counts a skip twice, moves them.
func TestClusterPolicyWorkCounters(t *testing.T) {
	spec, err := workload.LoadSpec(filepath.FromSlash("bench/specs/cluster-policy.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 42
	rep, err := RunClusterSpec(spec, nil, WithLanes(1))
	if err != nil {
		t.Fatal(err)
	}
	pl := rep.Policy
	if pl.SignalReads != 3800 {
		t.Errorf("SignalReads = %d, want 3800 (one per instant a pass asks: the full walk's 3,783, and 17 at a record's early release bound)", pl.SignalReads)
	}
	if pl.PlaceProbes != 25258 {
		t.Errorf("PlaceProbes = %d, want 25258 (skipped jobs are not probed)", pl.PlaceProbes)
	}
	if pl.QueueVisits != 25491 {
		t.Errorf("QueueVisits = %d, want 25491 (the full walk makes 548,993)", pl.QueueVisits)
	}
	if pl.DeferredJobs == 0 || pl.CoScheduled == 0 {
		t.Errorf("nothing deferred or nothing paired (%+v): the bounds are vacuous", pl)
	}
	t.Logf("SignalReads %d, PlaceProbes %d, QueueVisits %d over %d submissions", pl.SignalReads, pl.PlaceProbes, pl.QueueVisits, rep.Submissions)
}
