package blob

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// limitFileSize lowers the process's file-size limit to n bytes and
// returns the function that restores it. A write past the limit stops
// short with EFBIG (the Go runtime ignores SIGXFSZ), the way a full
// disk stops one with ENOSPC.
func limitFileSize(t *testing.T, n int64) (restore func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := old
	lim.Cur = uint64(n)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	return func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatalf("restoring the file-size limit: %v", err)
		}
	}
}

// TestDirPutShortWriteLeavesNoTemp stops a Put's write after 100
// bytes, as a full disk would, in a directory that exists and in one
// Put must create. The Put must fail with the write's error and leave
// no file behind: neither under its key nor as its temp file.
func TestDirPutShortWriteLeavesNoTemp(t *testing.T) {
	for _, c := range []struct{ name, key string }{
		{"existing-dir", "b.csv"},
		{"new-dir", "traces/run1/b.csv"},
	} {
		key := c.key
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			d, err := NewDir(root)
			if err != nil {
				t.Fatal(err)
			}
			restore := limitFileSize(t, 100)
			err = d.Put(key, make([]byte, 1000))
			restore()
			if !errors.Is(err, syscall.EFBIG) {
				t.Fatalf("Put = %v, want the write stopped by the file-size limit", err)
			}
			var left []string
			filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
				if err == nil && !info.IsDir() {
					left = append(left, path)
				}
				return err
			})
			if len(left) != 0 {
				t.Fatalf("failed Put left %v", left)
			}
			if _, err := d.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after failed Put = %v, want ErrNotFound", err)
			}
		})
	}
}
