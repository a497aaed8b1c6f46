package settings

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDefaultsAreUserMode(t *testing.T) {
	s := Defaults()
	if s.State != StateUser {
		t.Fatalf("default state = %q, want user (opt-in)", s.State)
	}
}

func TestStateValidity(t *testing.T) {
	for _, s := range []State{StateActive, StateUser, StateDeactivated} {
		if !s.Valid() {
			t.Errorf("%q should be valid", s)
		}
	}
	if State("turbo").Valid() {
		t.Error("unknown state valid")
	}
}

func TestEtcStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "etc", "chronus", "settings.json")
	st := NewEtcStore(path)

	// First load: no file yet → defaults.
	s, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StateUser {
		t.Fatalf("fresh load state = %q", s.State)
	}

	s.DatabasePath = "/var/lib/chronus/db"
	s.BlobStoragePath = "/var/lib/chronus/blobs"
	s.State = StateActive
	s.SetModel(LocalModel{ModelID: 3, SystemID: 7, SystemHash: "sys7", Optimizer: "linear-regression", Path: "/opt/chronus/optimizer"})
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}

	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.DatabasePath != s.DatabasePath || got.State != StateActive {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	m, ok := got.FindModelByHash("sys7", "")
	if !ok || m.ModelID != 3 || m.Optimizer != "linear-regression" {
		t.Fatalf("model registry lost: %+v", got.LocalModels)
	}
}

func TestSaveRejectsInvalidState(t *testing.T) {
	st := NewEtcStore(filepath.Join(t.TempDir(), "settings.json"))
	if err := st.Save(Settings{State: "bogus"}); err == nil {
		t.Fatal("invalid state saved")
	}
	if NewMemStore().Save(Settings{State: "bogus"}) == nil {
		t.Fatal("invalid state saved to MemStore")
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := NewEtcStore(path).Load(); err == nil {
		t.Fatal("corrupt settings accepted")
	}
	os.WriteFile(path, []byte(`{"state":"bogus"}`), 0o644)
	if _, err := NewEtcStore(path).Load(); err == nil {
		t.Fatal("invalid state accepted")
	}
}

func TestLoadFillsEmptyState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	os.WriteFile(path, []byte(`{"database":"/db"}`), 0o644)
	s, err := NewEtcStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StateUser {
		t.Fatalf("empty state filled with %q, want user", s.State)
	}
}

func TestSetModelReplacesPerSystemAndApp(t *testing.T) {
	var s Settings
	s.SetModel(LocalModel{ModelID: 1, SystemID: 5, SystemHash: "s5", AppHash: "hpcg"})
	s.SetModel(LocalModel{ModelID: 2, SystemID: 5, SystemHash: "s5", AppHash: "hpcg"})
	s.SetModel(LocalModel{ModelID: 3, SystemID: 5, SystemHash: "s5", AppHash: "stream"})
	s.SetModel(LocalModel{ModelID: 4, SystemID: 6, SystemHash: "s6", AppHash: "hpcg"})
	if len(s.LocalModels) != 3 {
		t.Fatalf("LocalModels = %+v", s.LocalModels)
	}
	m, _ := s.FindModelByHash("s5", "hpcg")
	if m.ModelID != 2 {
		t.Fatalf("system 5 hpcg model = %d, want 2 (replaced)", m.ModelID)
	}
	if _, ok := s.FindModelByHash("s99", ""); ok {
		t.Fatal("unknown system found something")
	}
}

func TestFindModelByHashPerApp(t *testing.T) {
	var s Settings
	s.SetModel(LocalModel{ModelID: 1, SystemID: 5, SystemHash: "sys", AppHash: "hpcg"})
	s.SetModel(LocalModel{ModelID: 2, SystemID: 5, SystemHash: "sys", AppHash: "stream"})
	m, ok := s.FindModelByHash("sys", "stream")
	if !ok || m.ModelID != 2 {
		t.Fatalf("stream lookup = %+v %v", m, ok)
	}
	if _, ok := s.FindModelByHash("sys", "lammps"); ok {
		t.Fatal("unknown app matched")
	}
	// Empty app hash matches the first model for the system.
	if m, ok := s.FindModelByHash("sys", ""); !ok || m.ModelID != 1 {
		t.Fatalf("wildcard lookup = %+v %v", m, ok)
	}
}

func TestSavedFileIsReadableJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	st := NewEtcStore(path)
	s := Defaults()
	s.DatabasePath = "/db"
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"database": "/db"`) {
		t.Fatalf("settings file not human-readable JSON:\n%s", data)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Fatal("settings file missing trailing newline")
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMemStore()
	s, err := m.Load()
	if err != nil || s.State != StateUser {
		t.Fatalf("fresh MemStore load: %+v, %v", s, err)
	}
	s.State = StateDeactivated
	if err := m.Save(s); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Load()
	if got.State != StateDeactivated {
		t.Fatalf("MemStore lost state: %+v", got)
	}
}

// Load decodes the file only when its bytes differ from the last ones
// decoded, so everything that can change the file behind the store's
// back must show on the very next Load.
func TestLoadSeesChangesMadeBehindTheStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "etc", "chronus", "settings.json")
	st := NewEtcStore(path)
	s := Defaults()
	s.SetModel(LocalModel{ModelID: 1, SystemID: 7, SystemHash: "11", AppHash: "22", Path: "/opt/chronus/m1"})
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	load := func() Settings {
		t.Helper()
		got, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := load(); got.State != StateUser || len(got.LocalModels) != 1 {
		t.Fatalf("first load = %+v", got)
	}
	load() // a second load, of unchanged bytes

	// Another process (`chronus set state`) saves through its own store.
	s.State = StateDeactivated
	if err := NewEtcStore(path).Save(s); err != nil {
		t.Fatal(err)
	}
	if got := load(); got.State != StateDeactivated {
		t.Fatalf("state after an external save = %q, want deactivated", got.State)
	}

	// An editor rewrites the file in place.
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(clean), `"deactivated"`, `"active"`, 1)
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := load(); got.State != StateActive {
		t.Fatalf("state after an in-place edit = %q, want active", got.State)
	}

	// A torn or invalid file is an error, not the remembered value.
	for _, bad := range []string{edited[:len(edited)/2], "", `{"state":"bogus"}`} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := st.Load(); err == nil {
			t.Fatalf("file %q loaded as %+v", bad, got)
		}
	}

	// Repaired — to the very bytes decoded before the damage.
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := load(); got.State != StateActive || len(got.LocalModels) != 1 {
		t.Fatalf("load after repair = %+v", got)
	}

	// Removed: first-run defaults again.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got := load(); got.State != StateUser || len(got.LocalModels) != 0 {
		t.Fatalf("load of a removed file = %+v, want defaults", got)
	}
}

// A loaded value belongs to the caller: PreloadModel-style
// load → SetModel → (maybe never save) must not alter what the next
// Load of the unchanged file returns.
func TestLoadedModelsAreTheCallers(t *testing.T) {
	st := NewEtcStore(filepath.Join(t.TempDir(), "settings.json"))
	s := Defaults()
	s.SetModel(LocalModel{ModelID: 1, SystemID: 7, AppHash: "22", Path: "/opt/chronus/m1"})
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.LocalModels) != 1 || got.LocalModels[0].ModelID != 1 || got.LocalModels[0].Path != "/opt/chronus/m1" {
			t.Fatalf("load %d = %+v, want the saved model untouched", i, got.LocalModels)
		}
		got.SetModel(LocalModel{ModelID: 99, SystemID: 7, AppHash: "22", Path: "/tmp/replaced"}) // overwrites element 0
		got.SetModel(LocalModel{ModelID: 100, SystemID: 8, AppHash: "22"})                       // appends
		got.State = StateActive
	}
}

// A file several times the read buffer's first capacity loads as
// json.Unmarshal of os.ReadFile decodes it, and so do the smaller files
// read after it into the grown buffer — the last one the same length
// as the one before, so a remembered decode that aliased the buffer
// would compare equal to it.
func TestLoadMatchesReadFileBeyondInitialBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	st := NewEtcStore(path)
	for _, c := range []struct {
		models int
		dir    string
	}{{200, "a"}, {3, "a"}, {3, "b"}} {
		s := Defaults()
		for i := 0; i < c.models; i++ {
			s.SetModel(LocalModel{ModelID: int64(i), SystemID: int64(i % 7), SystemHash: fmt.Sprint(i * 31), AppHash: fmt.Sprint(i), Optimizer: "random-forest", Path: fmt.Sprintf("/opt/chronus/%s/%d.json", c.dir, i)})
		}
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if c.models == 200 && len(data) <= 4*initialReadSize {
			t.Fatalf("%d-model file is %d bytes, want several times the %d-byte first buffer", c.models, len(data), initialReadSize)
		}
		var want Settings
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		got, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d models in %s: Load = %+v, want %+v", c.models, c.dir, got, want)
		}
	}
}

// A directory where the file should be is an error, not defaults.
func TestLoadOfADirectoryIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if got, err := NewEtcStore(path).Load(); err == nil {
		t.Fatalf("directory loaded as %+v", got)
	}
}

// Loads from several goroutines while another store saves: saves are
// atomic renames, so every Load returns one of the saved values, and
// once the saves are done every Load returns the last one.
func TestConcurrentLoadsSeeSaves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	st := NewEtcStore(path)
	t.Cleanup(func() { st.Close() })
	writer := NewEtcStore(path)
	save := func(i int) {
		s := Defaults()
		s.DatabasePath = fmt.Sprintf("/db%d", i)
		if err := writer.Save(s); err != nil {
			t.Error(err)
		}
	}
	save(0)
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				s, err := st.Load()
				if err != nil || !strings.HasPrefix(s.DatabasePath, "/db") {
					t.Errorf("concurrent Load = %+v, %v", s, err)
					return
				}
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		save(i)
	}
	done.Store(true)
	wg.Wait()
	for i := 0; i < 3; i++ {
		if s, err := st.Load(); err != nil || s.DatabasePath != "/db200" {
			t.Fatalf("Load after the last save = %+v, %v; want /db200", s, err)
		}
	}
}
