package settings

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// readEveryCall is the oracle the watch must agree with: what Load
// returned when it read the file on every call.
func readEveryCall(path string) (Settings, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Defaults(), nil
	}
	if err != nil {
		return Settings{}, err
	}
	var s Settings
	if err := json.Unmarshal(data, &s); err != nil {
		return Settings{}, err
	}
	if s.State == "" {
		s.State = StateUser
	}
	if !s.State.Valid() {
		return Settings{}, fmt.Errorf("invalid state %q", s.State)
	}
	return s, nil
}

// watchableDir returns a temporary directory on a file system the
// watch arms on, or skips the test.
func watchableDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(watchableFS[:], uint32(st.Type)) {
		t.Skipf("%s is on file system 0x%x, which the watch never arms on", dir, uint32(st.Type))
	}
	return dir
}

// Loading an unchanged file allocates nothing: once the watch is armed
// it is one ppoll and a copy of the remembered value.
func TestLoadOfUnchangedFileDoesNotAllocate(t *testing.T) {
	st := NewEtcStore(filepath.Join(watchableDir(t), "settings.json"))
	t.Cleanup(func() { st.Close() })
	s := Defaults()
	s.SetModel(LocalModel{ModelID: 1, SystemID: 7, SystemHash: "11", AppHash: "22", Path: "/opt/chronus/m1"})
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	// Decode, read back (which arms the watch), read with it armed.
	for i := 0; i < 3; i++ {
		if _, err := st.Load(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.Load(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Load of an unchanged file allocates %.1f times, want 0", allocs)
	}
}

// oracleRig drives one EtcStore through changes made behind its back
// and compares every Load with readEveryCall.
type oracleRig struct {
	t      *testing.T
	rng    *rand.Rand
	root   string // the temporary directory
	path   string // root/etc/chronus/settings.json
	st     *EtcStore
	gen    int // names renamed-away directories and varies contents
	polled int // Loads answered by the poll alone
}

func (r *oracleRig) dir() string { return filepath.Dir(r.path) }

// check loads three times, so that an unarmed store arms (second
// Load) and then reads with the watch armed (third), and compares each
// Load with the oracle.
func (r *oracleRig) check(step string) {
	r.t.Helper()
	for i := 0; i < 3; i++ {
		polled := r.st.fresh && r.st.watch.quiet()
		got, err := r.st.Load()
		want, werr := readEveryCall(r.path)
		switch {
		case err != nil && werr == nil:
			r.t.Fatalf("%s, load %d: Load failed with %v; reading the file gives %+v", step, i, err, want)
		case err == nil && werr != nil:
			r.t.Fatalf("%s, load %d: Load = %+v; reading the file fails with %v", step, i, got, werr)
		case err == nil && !reflect.DeepEqual(got, want):
			r.t.Fatalf("%s, load %d (answered by the poll alone: %v): Load = %+v; reading the file gives %+v", step, i, polled, got, want)
		}
		if polled {
			r.polled++
		}
	}
}

// settings returns a valid settings value unlike the ones before it.
func (r *oracleRig) settings() Settings {
	r.gen++
	s := Settings{State: []State{StateActive, StateUser, StateDeactivated, ""}[r.rng.IntN(4)], DatabasePath: fmt.Sprintf("/var/lib/chronus/db%d", r.gen)}
	for i := 0; i < r.rng.IntN(4); i++ {
		s.SetModel(LocalModel{ModelID: int64(r.gen*10 + i), SystemID: int64(i), SystemHash: strconv.Itoa(r.rng.IntN(1000)), AppHash: "22", Path: fmt.Sprintf("/opt/chronus/m%d.json", r.gen)})
	}
	return s
}

func (r *oracleRig) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

// write writes fresh contents to p through a new file (or over an
// existing one, truncating it).
func (r *oracleRig) write(p string) {
	data, err := json.MarshalIndent(r.settings(), "", "  ")
	r.must(err)
	r.must(os.MkdirAll(filepath.Dir(p), 0o755))
	r.must(os.WriteFile(p, data, 0o644))
}

// rewriteDigit changes one digit of the file at p in place, through
// whichever name p is: same size, same inode, no truncation — a change
// only the inode's own watch sees. A file with no digit is rewritten
// whole.
func (r *oracleRig) rewriteDigit(p string) {
	data, err := os.ReadFile(p)
	i := bytes.LastIndexAny(data, "0123456789")
	if err != nil || i < 0 {
		r.write(p)
		return
	}
	f, err := os.OpenFile(p, os.O_WRONLY, 0)
	r.must(err)
	_, err = f.WriteAt([]byte{'0' + (data[i]-'0'+1)%10}, int64(i))
	r.must(err)
	r.must(f.Close())
}

// maxQueuedEvents is the inotify queue length past which events are
// dropped for IN_Q_OVERFLOW.
func maxQueuedEvents() int {
	data, err := os.ReadFile("/proc/sys/fs/inotify/max_queued_events")
	if n, err2 := strconv.Atoi(strings.TrimSpace(string(data))); err == nil && err2 == nil {
		return n
	}
	return 16384
}

// The watch only ever saves reads. After each change in a seeded
// random sequence of changes made behind the store's back, Load returns
// exactly what reading the file returns. Each change targets a part of
// the watch: the file's inode, every directory on the path, the entry
// names, symlinks, the queue and the mount table.
func TestLoadMatchesReadEveryCallOracle(t *testing.T) {
	root := watchableDir(t)
	r := &oracleRig{t: t, rng: rand.New(rand.NewPCG(35, 7)), root: root, path: filepath.Join(root, "etc", "chronus", "settings.json")}
	r.st = NewEtcStore(r.path)
	t.Cleanup(func() { r.st.Close() })
	r.write(r.path)
	r.check("first write")

	ops := []struct {
		name string
		do   func(step string)
	}{
		{"save through a second store", func(step string) {
			r.must(NewEtcStore(r.path).Save(r.settings()))
			r.check(step)
		}},
		{"same-size rewrite in place", func(step string) {
			r.rewriteDigit(r.path)
			r.check(step)
		}},
		{"write through a hard link in another directory", func(step string) {
			if _, err := os.Stat(r.path); err != nil {
				r.write(r.path)
				r.check(step + ": created")
			}
			link := filepath.Join(r.root, "other", "hardlink.json")
			r.must(os.MkdirAll(filepath.Dir(link), 0o755))
			r.must(os.Link(r.path, link))
			r.rewriteDigit(link)
			r.check(step)
			r.must(os.Remove(link))
		}},
		{"truncate", func(step string) {
			info, err := os.Stat(r.path)
			if err != nil {
				r.write(r.path)
				r.check(step + ": created")
				info, err = os.Stat(r.path)
				r.must(err)
			}
			r.must(os.Truncate(r.path, r.rng.Int64N(info.Size()+1)))
			r.check(step)
		}},
		{"remove and recreate", func(step string) {
			if err := os.Remove(r.path); err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
			r.check(step + ": removed")
			r.write(r.path)
			r.check(step + ": recreated")
		}},
		{"chmod 000 and back", func(step string) {
			if os.Geteuid() == 0 {
				return // root reads the file whatever its mode
			}
			if _, err := os.Stat(r.path); err != nil {
				return
			}
			r.must(os.Chmod(r.path, 0))
			r.check(step + ": 000")
			r.must(os.Chmod(r.path, 0o644))
			r.check(step + ": 644")
		}},
		{"rename an ancestor, swap in a replacement", func(step string) {
			etc := filepath.Join(r.root, "etc")
			r.must(os.Rename(etc, fmt.Sprintf("%s.%d", etc, r.gen)))
			r.write(r.path)
			r.check(step)
		}},
		{"retarget a symlink on the path", func(step string) {
			// chronus → hop → t1, then hop → t2: hop's directory entry
			// is not one of the path's own names, so only a store that
			// reads every call behind a symlink sees the write to t2.
			etc := filepath.Join(r.root, "etc")
			r.write(filepath.Join(etc, "t1", "settings.json"))
			r.write(filepath.Join(etc, "t2", "settings.json"))
			r.must(os.Symlink("t1", filepath.Join(etc, "hop")))
			r.must(os.Rename(r.dir(), fmt.Sprintf("%s.%d", r.dir(), r.gen)))
			r.must(os.Symlink("hop", r.dir()))
			r.check(step + ": linked")
			r.must(os.Symlink("t2", filepath.Join(etc, "hop.new")))
			r.must(os.Rename(filepath.Join(etc, "hop.new"), filepath.Join(etc, "hop")))
			r.check(step + ": retargeted")
			r.rewriteDigit(r.path)
			r.check(step + ": rewritten in place through the links")
			r.must(os.Remove(r.dir()))
			r.must(os.Remove(filepath.Join(etc, "hop")))
			r.must(os.RemoveAll(filepath.Join(etc, "t1")))
			r.must(os.Rename(filepath.Join(etc, "t2"), r.dir()))
			r.check(step + ": a directory again")
		}},
		{"overflow the event queue", func(step string) {
			// A sibling renamed back and forth fills the queue (each
			// rename queues two events, and its own cookie keeps them
			// from merging), so the replacing rename after it is
			// dropped and only IN_Q_OVERFLOW says anything happened. A
			// watcher that took that as quiet would keep watching the
			// replaced inode and miss the in-place write that follows.
			a, b := filepath.Join(r.dir(), "sibling-a"), filepath.Join(r.dir(), "sibling-b")
			r.must(os.WriteFile(a, nil, 0o644))
			for i := 0; i < maxQueuedEvents()/2+1; i++ {
				r.must(os.Rename(a, b))
				r.must(os.Rename(b, a))
			}
			r.must(os.Remove(a))
			tmp := r.path + ".new"
			r.write(tmp)
			r.must(os.Rename(tmp, r.path))
			r.check(step + ": replaced")
			r.rewriteDigit(r.path)
			r.check(step + ": rewritten in place")
		}},
		{"bind-mount over the directory", func(step string) {
			alt := filepath.Join(r.root, fmt.Sprintf("alt%d", r.gen))
			r.write(filepath.Join(alt, "settings.json"))
			r.must(os.MkdirAll(r.dir(), 0o755))
			if err := syscall.Mount(alt, r.dir(), "", syscall.MS_BIND, ""); err != nil {
				return // not root, or no CAP_SYS_ADMIN here
			}
			mounted := r.dir()
			t.Cleanup(func() { syscall.Unmount(mounted, syscall.MNT_DETACH) })
			r.check(step + ": mounted")
			r.rewriteDigit(r.path)
			r.check(step + ": written through the mount")
			r.must(syscall.Unmount(mounted, 0))
			r.check(step + ": unmounted")
		}},
	}
	// Six rounds, each every change once in a random order.
	step := 0
	for round := 0; round < 6; round++ {
		for _, i := range r.rng.Perm(len(ops)) {
			ops[i].do(fmt.Sprintf("step %d (%s)", step, ops[i].name))
			step++
		}
	}
	if r.polled == 0 {
		t.Fatal("no Load was answered by the poll alone: the watch never armed")
	}
	t.Logf("%d Loads answered by the poll alone", r.polled)
}
