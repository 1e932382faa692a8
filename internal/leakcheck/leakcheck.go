// Package leakcheck fails a test binary whose tests leave a goroutine
// behind. A package opts in with a one-line TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Files does the same for the file descriptors one step of a test opens.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and exits: after m.Run the goroutines must fall back
// to as many as there were at the start within a few seconds, or every
// stack is dumped and the run fails.
func Main(m *testing.M) {
	before := len(goroutines())
	code := m.Run()
	if code == 0 {
		after := goroutines()
		for deadline := time.Now().Add(5 * time.Second); len(after) > before && time.Now().Before(deadline); after = goroutines() {
			time.Sleep(10 * time.Millisecond)
		}
		if len(after) > before {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n\n%s\n",
				len(after), before, strings.Join(after, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// goroutines returns the stack of every goroutine except the os/signal
// receive loop, which the testing package's fuzz mode starts and which runs
// until the process exits.
func goroutines() []string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if !strings.Contains(g, "os/signal.signal_recv") {
			out = append(out, g)
		}
	}
	return out
}

// Files runs f and fails t if the process holds more file descriptors after
// it than before, counted in /proc/self/fd; what names f in the failure.
// Where there is no /proc/self/fd (outside Linux) f runs unchecked.
func Files(t testing.TB, what string, f func()) {
	t.Helper()
	// No collection runs meanwhile: it would close a file f leaked, through
	// the file's finalizer, and hide the leak.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before, ok := openFiles()
	f()
	if after, _ := openFiles(); ok && after > before {
		t.Errorf("%s left %d file descriptor(s) open", what, after-before)
	}
}

// openFiles counts the entries of /proc/self/fd, the descriptor that lists
// them included; ok is false where the directory cannot be read.
func openFiles() (n int, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	return len(fds), err == nil
}
