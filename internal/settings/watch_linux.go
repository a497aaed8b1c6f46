package settings

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"unsafe"
)

// Inotify masks. A directory on the path reports the entry events
// (create, delete, rename, attribute change) of every name under it —
// the watcher keeps those of the one name the path takes there — and
// its own move, delete and attribute change. The file reports every
// change to its inode, which a write through any hard link reaches.
// IN_UNMOUNT and IN_IGNORED are reported whether asked for or not.
// IN_DONT_FOLLOW makes a symlink's own inode the one watched, and with
// IN_ONLYDIR a symlink where a directory should be fails the watch.
const (
	dirMask = syscall.IN_ONLYDIR | syscall.IN_DONT_FOLLOW |
		syscall.IN_CREATE | syscall.IN_DELETE | syscall.IN_MOVED_FROM | syscall.IN_MOVED_TO |
		syscall.IN_ATTRIB | syscall.IN_DELETE_SELF | syscall.IN_MOVE_SELF
	fileMask = syscall.IN_DONT_FOLLOW |
		syscall.IN_MODIFY | syscall.IN_ATTRIB | syscall.IN_CLOSE_WRITE | syscall.IN_MOVE_SELF | syscall.IN_DELETE_SELF
)

// watchableFS holds the statfs magic numbers of the file systems whose
// every change goes through the local kernel and so reaches inotify:
// tmpfs and devtmpfs, ext2/3/4, xfs and btrfs. NFS, FUSE and overlay
// are left out: a change made on the server, in the daemon or in a
// lower layer never passes an inotify hook here.
var watchableFS = [...]uint32{0x01021994, 0xEF53, 0x58465342, 0x9123683E}

// pollFd is struct pollfd.
type pollFd struct {
	fd      int32
	events  int16
	revents int16
}

const (
	pollIn  = 0x1
	pollPri = 0x2
)

// watcher tells an EtcStore whether anything that could change what
// open(path) + read return has happened since it was armed. It holds
// one inotify instance, created on the first arm, watching every
// directory on the path from "/" down and the file's inode, and an open
// /proc/self/mountinfo, whose POLLPRI reports a change to the mount
// table. An event it cannot place — an overflow, a watch it does not
// know, IN_IGNORED — counts as a change.
//
// A watcher never arms for a relative or unclean path, after a setup
// failure or after close. An arm fails, leaving the watcher unarmed,
// on a symlink anywhere on the path, on a file system outside
// watchableFS, and on any watch error but ENOENT; a missing component
// is covered by its parent's watch, which reports the name appearing.
type watcher struct {
	open   bool // the inotify instance and mountinfo are open
	broken bool // never arm: a relative or unclean path, a setup failure, or closed
	on     bool // armed: wds cover the path as it resolved when armed
	stale  bool // something moved since the watch was armed: arm again

	fds  [2]pollFd        // the inotify instance, then mountinfo
	zero syscall.Timespec // ppoll's timeout

	prefixes []string // "/", "/a", "/a/b", …, the path itself
	names    []string // names[i] is the entry of prefixes[i] that prefixes[i+1] takes
	wds      []int32  // wds[i] watches prefixes[i]; shorter when a component is missing
	retired  []int32  // removed watches whose IN_IGNORED is still to come
	buf      []byte   // event buffer
}

// quiet reports whether the watch is armed and nothing has happened
// since: one ppoll(2) over both descriptors with a zero timeout.
func (w *watcher) quiet() bool {
	return w.on && !w.stale && w.poll() == 0
}

// settle readies an armed watch for a read of path and reports whether
// that read counts towards freshness, i.e. whether the watch is armed
// before it begins. It drains the inotify queue and, if anything moved,
// arms again. An unarmed watcher reports false and stays unarmed.
func (w *watcher) settle(path string) bool {
	if !w.on {
		return false
	}
	if w.poll() != 0 && w.fds[0].revents != 0 {
		w.drain()
	}
	if w.stale {
		return w.arm(path)
	}
	return true
}

// poll polls both descriptors without blocking and returns how many
// report an event, or -1 on an error. A change to the mount table is
// noted in w.stale here, because the poll that reports it consumes it.
func (w *watcher) poll() int {
	// A zero timeout never blocks, so the raw call is safe.
	n, _, errno := syscall.RawSyscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&w.fds[0])), uintptr(len(w.fds)), uintptr(unsafe.Pointer(&w.zero)), 0, 0, 0)
	if errno != 0 {
		w.stale = true
		return -1
	}
	if w.fds[1].revents != 0 {
		w.stale = true
	}
	return int(n)
}

// drain empties the inotify queue, marking the watch stale if any event
// could change what reading the path returns.
func (w *watcher) drain() {
	const header = syscall.SizeofInotifyEvent
	for {
		n, err := syscall.Read(int(w.fds[0].fd), w.buf)
		if err == syscall.EINTR {
			continue
		}
		if err != nil || n <= 0 {
			if err != syscall.EAGAIN {
				w.stale = true
			}
			return
		}
		for off := 0; off+header <= n; {
			ev := w.buf[off:n]
			wd := int32(binary.NativeEndian.Uint32(ev[0:]))
			mask := binary.NativeEndian.Uint32(ev[4:])
			nameLen := int(binary.NativeEndian.Uint32(ev[12:]))
			name := ev[header : header+nameLen]
			if i := bytes.IndexByte(name, 0); i >= 0 {
				name = name[:i] // the kernel pads the name with NULs
			}
			off += header + nameLen
			if w.moved(wd, mask, name) {
				w.stale = true
			}
		}
	}
}

// moved reports whether one event could change what reading the path
// returns: an overflow, an event on a watch the watcher does not know,
// anything on the file or on a directory itself, and an entry event on
// a directory for the one name the path takes there.
func (w *watcher) moved(wd int32, mask uint32, name []byte) bool {
	if mask&syscall.IN_Q_OVERFLOW != 0 {
		return true
	}
	if i := slices.Index(w.retired, wd); i >= 0 {
		if mask&syscall.IN_IGNORED != 0 {
			w.retired = slices.Delete(w.retired, i, i+1)
		}
		return false
	}
	i := slices.Index(w.wds, wd)
	return i < 0 || len(name) == 0 || i < len(w.names) && string(name) == w.names[i]
}

// arm watches path as it resolves now and reports whether it could.
// What is queued is dropped first: the read that follows sees every
// change made before the watches below are in place. The directories
// are watched from "/" down, so a component replaced after its parent's
// watch is in place leaves an event on that watch.
func (w *watcher) arm(path string) bool {
	w.on = false
	if !w.open && !w.start(path) {
		return false
	}
	w.poll()
	w.drain()
	w.stale = false

	old := w.wds
	w.wds = make([]int32, 0, len(w.prefixes))
	last := len(w.prefixes) - 1
	for i, p := range w.prefixes {
		mask := uint32(dirMask)
		if i == last {
			mask = fileMask
		}
		wd, err := syscall.InotifyAddWatch(int(w.fds[0].fd), p, mask)
		if err == syscall.ENOENT {
			break
		}
		if err != nil || slices.Contains(w.wds, int32(wd)) {
			return w.fail(old)
		}
		w.wds = append(w.wds, int32(wd))
	}
	if !w.watchable() {
		return w.fail(old)
	}
	for _, wd := range old {
		if !slices.Contains(w.wds, wd) {
			w.retire(wd)
		}
	}
	w.on = true
	return true
}

// watchable reports whether the deepest directory watched and, if it
// was watched, the file are on a file system in watchableFS, and the
// file is not a symlink.
func (w *watcher) watchable() bool {
	dir := min(len(w.wds), len(w.prefixes)-1) - 1
	check := w.prefixes[dir : dir+1]
	if len(w.wds) == len(w.prefixes) {
		var st syscall.Stat_t
		err := syscall.Lstat(w.prefixes[dir+1], &st)
		if err == nil && st.Mode&syscall.S_IFMT == syscall.S_IFLNK {
			return false
		}
		check = w.prefixes[dir:]
	}
	for _, p := range check {
		var st syscall.Statfs_t
		err := syscall.Statfs(p, &st)
		if err == syscall.ENOENT {
			continue // gone since its watch was added, which reported it
		}
		if err != nil || !slices.Contains(watchableFS[:], uint32(st.Type)) {
			return false
		}
	}
	return true
}

// fail removes every watch, those of the arm that failed and the old
// ones, and leaves the watcher unarmed.
func (w *watcher) fail(old []int32) bool {
	for _, wd := range slices.Concat(old, w.wds) {
		if !slices.Contains(w.retired, wd) {
			w.retire(wd)
		}
	}
	w.wds = w.wds[:0]
	return false
}

// retire removes a watch; its IN_IGNORED, and anything queued before
// it, is then ignored. A watch the kernel already removed (its inode
// was deleted) has had its IN_IGNORED queued.
func (w *watcher) retire(wd int32) {
	if _, err := syscall.InotifyRmWatch(int(w.fds[0].fd), uint32(wd)); err == nil {
		w.retired = append(w.retired, wd)
	}
}

// start opens the inotify instance and mountinfo, or marks the watcher
// broken for a path it cannot watch.
func (w *watcher) start(path string) bool {
	if w.broken {
		return false
	}
	w.broken = true
	if !filepath.IsAbs(path) || filepath.Clean(path) != path {
		return false
	}
	ifd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return false
	}
	mfd, err := syscall.Open("/proc/self/mountinfo", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		syscall.Close(ifd)
		return false
	}
	w.fds = [2]pollFd{{fd: int32(ifd), events: pollIn}, {fd: int32(mfd), events: pollPri}}
	w.names = strings.Split(path[1:], "/")
	w.prefixes = make([]string, len(w.names)+1)
	w.prefixes[0] = "/"
	for i, name := range w.names {
		w.prefixes[i+1] = filepath.Join(w.prefixes[i], name)
	}
	w.buf = make([]byte, 4096)
	w.broken, w.open = false, true
	return true
}

// close releases the inotify instance, and with it every watch, and
// mountinfo. The watcher never arms again.
func (w *watcher) close() error {
	w.broken, w.on = true, false
	if !w.open {
		return nil
	}
	w.open = false
	err := syscall.Close(int(w.fds[0].fd))
	if err2 := syscall.Close(int(w.fds[1].fd)); err == nil {
		err = err2
	}
	return err
}
