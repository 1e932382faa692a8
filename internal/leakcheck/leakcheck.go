// Package leakcheck fails a test binary whose tests leave a goroutine
// behind. A package opts in with a one-line TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
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
