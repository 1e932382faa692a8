package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildS2 compiles the real cmd/s2 from the checkout's source, once per run,
// into the checkout's build directory.
func buildS2(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "s2")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/s2")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/s2: %v\n%s", err, out)
	}
	return bin, nil
}

// Admission flags of cmd/s2. The benchmark passes none, so these are the
// binary's defaults; they are recorded with every result.
var admissionFlags = map[string]string{"max-inflight": "64", "max-queue": "0 (2x max-inflight)", "queue-wait": "1s"}

// server is one running `s2 -load … -serve` process.
type server struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	log   *os.File
	setup time.Duration // process start → /debug/healthz 200
	done  chan error
	ended bool // the process has exited and been waited for
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// bootServer starts the binary on the corpus and waits until /debug/healthz
// answers 200. On any failure the process is killed before returning.
func bootServer(ctx context.Context, bin, corpusPath string, shards int, logPath string, hc *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-load", corpusPath, "-serve", "-debug-addr", addr}
	if shards > 1 {
		args = append(args, "-shards", strconv.Itoa(shards))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start s2: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	deadline := time.NewTimer(120 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := hc.Get(s.base + "/debug/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case werr := <-s.done:
			logf.Close()
			return nil, fmt.Errorf("s2 exited before becoming healthy: %v (see %s)", werr, logPath)
		case <-deadline.C:
			s.kill()
			return nil, fmt.Errorf("s2 not healthy after 120s (see %s)", logPath)
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}

// stop interrupts the server and waits for it to exit, killing it if it
// does not within ten seconds.
func (s *server) stop() error {
	if s.ended {
		return nil
	}
	s.ended = true
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGINT); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-s.done
		return fmt.Errorf("interrupt s2: %w", err)
	}
	select {
	case err := <-s.done:
		// cmd/s2 installs its signal handler only after /debug/healthz
		// already answers, so a server stopped right after boot may die of
		// the interrupt instead of handling it. Either way it has stopped.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGINT {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("s2 exit: %w", err)
		}
		return nil
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-s.done
		return errors.New("s2 ignored SIGINT for 10s and was killed")
	}
}

// kill is the error-path stop: no grace, but it still waits for the exit.
// After stop it does nothing, so it can be deferred unconditionally.
func (s *server) kill() {
	if s.ended {
		return
	}
	s.ended = true
	s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-s.done
	s.log.Close()
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux the Go toolchain supports.
const clockTick = 100

// cpuTime reads utime+stime of a process from /proc.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// comm (field 2) may contain spaces; fields are counted after its ")".
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSSMB reads VmHWM (peak resident set) of a process in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// counters is a flat view of a Prometheus text exposition: sample name
// (labels included verbatim) to value.
type counters map[string]float64

// parseCounters reads Prometheus text format.
func parseCounters(r io.Reader) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may hold spaces, so the name ends after the labels.
		nameEnd := strings.IndexByte(line, '}') + 1
		if nameEnd == 0 {
			nameEnd = strings.IndexByte(line, ' ')
		}
		if nameEnd <= 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		val := strings.Fields(line[nameEnd:])
		if len(val) == 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(val[0], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		out[line[:nameEnd]] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses the server's /debug/metrics.
func scrape(hc *http.Client, base string) (counters, error) {
	resp, err := hc.Get(base + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/metrics: %s", resp.Status)
	}
	return parseCounters(resp.Body)
}

// delta is after−before for one counter (missing counters read 0).
func (after counters) delta(before counters, name string) float64 {
	return after[name] - before[name]
}
