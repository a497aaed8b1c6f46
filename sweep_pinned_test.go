package ecosched

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestSweepOutputsPinned pins every persisted byte of the seed-42 paper
// sweep: the Table 1 it prints and the trace blob of each
// configuration (FNV-64a over key, newline, bytes, in key order). A change
// to the sampler, the node model or the trace encoder that moves one
// sample of one configuration fails it.
func TestSweepOutputsPinned(t *testing.T) {
	const (
		wantTable1 = "795ab98ddb75a245"
		wantBlobs  = 138
		wantBytes  = 4_015_184
		wantTraces = "76e203bb536f7910"
	)
	d := newDeployment(t, WithSeed(42))
	res, err := d.RunSweepExperiment()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	res.WriteTable1(h)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != wantTable1 {
		t.Errorf("Table 1 digest %s, want %s", got, wantTable1)
	}

	keys, err := d.Blob.List()
	if err != nil {
		t.Fatal(err)
	}
	h.Reset()
	blobs, size := 0, 0
	for _, key := range keys {
		if !strings.HasPrefix(key, "traces/") {
			continue
		}
		data, err := d.Blob.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(key + "\n"))
		h.Write(data)
		blobs++
		size += len(data)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); blobs != wantBlobs || size != wantBytes || got != wantTraces {
		t.Errorf("trace blobs: %d blobs, %d bytes, digest %s; want %d, %d, %s", blobs, size, got, wantBlobs, wantBytes, wantTraces)
	}
}
