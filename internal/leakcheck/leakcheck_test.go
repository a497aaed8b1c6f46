package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// recorder captures Fatalf instead of failing, so the failure path of
// the checker itself can be asserted.
type recorder struct {
	testing.TB
	failed bool
	msg    string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) {
	r.failed = true
	r.msg = fmt.Sprintf(format, args...)
}

func TestCheckPassesWhenGoroutinesExit(t *testing.T) {
	rec := &recorder{}
	check := Check(rec)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	check()
	if rec.failed {
		t.Fatalf("clean exit reported as a leak: %s", rec.msg)
	}
}

func TestCheckReportsLeakedGoroutine(t *testing.T) {
	old := grace
	grace = 50 * time.Millisecond
	defer func() { grace = old }()

	// Let goroutines of earlier tests finish unwinding first: one that
	// exits after the snapshot would offset the leak in the count.
	for n := -1; n != runtime.NumGoroutine(); time.Sleep(10 * time.Millisecond) {
		n = runtime.NumGoroutine()
	}
	rec := &recorder{}
	check := Check(rec)
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	go func() {
		close(started)
		<-block // leaked until the test cleans up
	}()
	<-started
	check()
	if !rec.failed {
		t.Fatal("leaked goroutine not reported")
	}
	if !strings.Contains(rec.msg, "goroutine leak") {
		t.Fatalf("unexpected failure message: %s", rec.msg)
	}
}
