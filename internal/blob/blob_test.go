package blob

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

// stores returns both implementations so every behaviour is tested
// against each.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"dir": dir, "memory": NewMemory()}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		data := []byte("model bytes")
		if err := s.Put("optimizers/model-1.json", data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := s.Get("optimizers/model-1.json")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: got %q", name, got)
		}
	}
}

func TestOverwrite(t *testing.T) {
	for name, s := range stores(t) {
		s.Put("k", []byte("v1"))
		s.Put("k", []byte("v2"))
		got, _ := s.Get("k")
		if string(got) != "v2" {
			t.Fatalf("%s: overwrite lost: %q", name, got)
		}
	}
}

func TestGetMissing(t *testing.T) {
	for name, s := range stores(t) {
		if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: err = %v, want ErrNotFound", name, err)
		}
	}
}

func TestDelete(t *testing.T) {
	for name, s := range stores(t) {
		s.Put("k", []byte("v"))
		if err := s.Delete("k"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Exists("k") {
			t.Fatalf("%s: key survives delete", name)
		}
		if err := s.Delete("k"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: double delete err = %v", name, err)
		}
	}
}

func TestListSorted(t *testing.T) {
	for name, s := range stores(t) {
		s.Put("b/two", []byte("2"))
		s.Put("a/one", []byte("1"))
		s.Put("c", []byte("3"))
		keys, err := s.List()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := []string{"a/one", "b/two", "c"}
		if len(keys) != len(want) {
			t.Fatalf("%s: keys = %v", name, keys)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("%s: keys = %v, want %v", name, keys, want)
			}
		}
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	for name, s := range stores(t) {
		for _, key := range []string{"", "/abs", "../escape", "a/../../b", "win\\path"} {
			if err := s.Put(key, []byte("x")); err == nil {
				t.Errorf("%s: Put(%q) accepted", name, key)
			}
			if _, err := s.Get(key); err == nil {
				t.Errorf("%s: Get(%q) accepted", name, key)
			}
			if s.Exists(key) {
				t.Errorf("%s: Exists(%q) true", name, key)
			}
		}
	}
}

func TestMemoryIsolation(t *testing.T) {
	m := NewMemory()
	data := []byte("mutable")
	m.Put("k", data)
	data[0] = 'X'
	got, _ := m.Get("k")
	if string(got) != "mutable" {
		t.Fatal("Memory store aliased caller's buffer on Put")
	}
	got[0] = 'Y'
	again, _ := m.Get("k")
	if string(again) != "mutable" {
		t.Fatal("Memory store aliased internal buffer on Get")
	}
}

func TestDirPersistence(t *testing.T) {
	root := t.TempDir()
	d1, _ := NewDir(root)
	d1.Put("persist/me", []byte("survived"))
	d2, _ := NewDir(root)
	got, err := d2.Get("persist/me")
	if err != nil || string(got) != "survived" {
		t.Fatalf("reopen: %q, %v", got, err)
	}
}

// Put makes a key's directory only when the write finds it missing:
// the first blob of a run directory, and any later one whose directory
// was removed underneath the store, must still land.
func TestDirPutRecreatesMissingDirectory(t *testing.T) {
	root := t.TempDir()
	d, _ := NewDir(root)
	for _, key := range []string{"traces/run1/a.csv", "traces/run1/b.csv"} {
		if err := d.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(filepath.Join(root, "traces")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("traces/run1/c.csv", []byte("after")); err != nil {
		t.Fatalf("Put after its directory was removed: %v", err)
	}
	if got, err := d.Get("traces/run1/c.csv"); err != nil || string(got) != "after" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if keys, _ := d.List(); len(keys) != 1 {
		t.Fatalf("keys after recreate = %v, want only c.csv", keys)
	}
}

// A put whose rename fails (the key names a non-empty directory) must
// report the error, leave no .tmp file behind and leave what was there.
func TestDirPutFailedRenameLeavesNoTemp(t *testing.T) {
	root := t.TempDir()
	d, _ := NewDir(root)
	if err := d.Put("models/v1/weights", []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("models/v1", []byte("clobber")); err == nil {
		t.Fatal("Put over a non-empty directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(root, "models", "v1.tmp")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file survived the failed rename: stat err = %v", err)
	}
	if got, err := d.Get("models/v1/weights"); err != nil || string(got) != "w" {
		t.Fatalf("existing blob after the failed put = %q, %v", got, err)
	}
}

func TestDirListIgnoresTempFiles(t *testing.T) {
	d, _ := NewDir(t.TempDir())
	d.Put("real", []byte("x"))
	// Simulate a crashed atomic write.
	d.Put("ghost.tmp.holder", []byte("x")) // valid key containing .tmp midway is fine
	keys, _ := d.List()
	for _, k := range keys {
		if k == "real.tmp" {
			t.Fatal("temp artefact listed")
		}
	}
}

// Property: Put/Get round-trips arbitrary binary data on both stores.
func TestRoundTripProperty(t *testing.T) {
	d, _ := NewDir(t.TempDir())
	m := NewMemory()
	if err := quick.Check(func(data []byte) bool {
		for _, s := range []Store{d, m} {
			if err := s.Put("blob", data); err != nil {
				return false
			}
			got, err := s.Get("blob")
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLatentWrapper(t *testing.T) {
	inner := NewMemory()
	l := NewLatent(inner, 400*time.Millisecond)
	if err := l.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if l.LastLatency() != 400*time.Millisecond {
		t.Fatalf("LastLatency = %v", l.LastLatency())
	}
	got, err := l.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if l.Ops() != 2 {
		t.Fatalf("Ops = %d", l.Ops())
	}
	// Delegation: List/Exists/Delete pass through untouched.
	if !l.Exists("k") {
		t.Fatal("Exists lost through wrapper")
	}
	keys, _ := l.List()
	if len(keys) != 1 {
		t.Fatalf("List = %v", keys)
	}
	if err := l.Delete("k"); err != nil {
		t.Fatal(err)
	}
}
