// Package leakcheck is a test helper asserting that a test leaves no
// goroutines behind — the guard the chaos suite puts around
// Deployment.Close, whose contract is to drain in-flight predictions
// (and the retries inside them) before tearing stores down.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// grace bounds how long the returned check waits for goroutines that
// are already unwinding; shortened by leakcheck's own failure test.
var grace = 5 * time.Second

// Check snapshots the goroutine count; the returned function fails the
// test if, after a grace period for exits in progress, more goroutines
// remain than were running at the snapshot. Use as:
//
//	defer leakcheck.Check(t)()
func Check(t testing.TB) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		// Goroutines unwind asynchronously after Close returns; poll
		// with a deadline instead of failing on the first count.
		deadline := time.Now().Add(grace)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d at start, %d still running\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	}
}
