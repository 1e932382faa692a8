package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request as the load generator saw it. Bodies are kept and
// validated after the timed window closes, so checking answers costs the
// measured system nothing.
type sample struct {
	req    int           // index into the request list
	due    time.Duration // when it was due (open loop) or sent (closed loop), from the run epoch
	sent   time.Duration // when it was actually sent
	first  time.Duration // first streamed frame complete (stream requests only)
	end    time.Duration // response fully read
	status int
	body   []byte
	err    error
}

// latency is measured from the due time: in an open loop that charges a
// stall to every request it delayed.
func (s sample) latency() time.Duration { return s.end - s.due }

// loadgen drives /v2/search of one server.
type loadgen struct {
	hc    *http.Client
	base  string
	reqs  []request
	epoch time.Time
}

// newHTTPClient returns a keep-alive client holding up to conns idle
// connections to the one host it talks to.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

// do sends request i and reads the whole answer. A closed loop passes a
// negative due time: the request is due when it is sent.
func (g *loadgen) do(i int, due time.Duration) sample {
	r := g.reqs[i%len(g.reqs)]
	s := sample{req: i % len(g.reqs), due: due}
	var body io.Reader
	url := g.base + "/v2/search"
	if r.post {
		body = bytes.NewReader(r.body)
	} else {
		url += "?" + r.query
	}
	hr, err := http.NewRequest(r.method(), url, body)
	if err != nil {
		s.err = err
		return s
	}
	if r.post {
		hr.Header.Set("Content-Type", "application/json")
	}
	s.sent = time.Since(g.epoch)
	if due < 0 {
		s.due = s.sent
	}
	resp, err := g.hc.Do(hr)
	if err != nil {
		s.err, s.end = err, time.Since(g.epoch)
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if r.family == famStream {
		br := bufio.NewReader(resp.Body)
		line, rerr := br.ReadBytes('\n')
		s.first = time.Since(g.epoch)
		rest, rerr2 := io.ReadAll(br)
		s.body = append(line, rest...)
		if rerr != nil && rerr != io.EOF {
			s.err = rerr
		} else if rerr2 != nil {
			s.err = rerr2
		}
	} else {
		s.body, s.err = io.ReadAll(resp.Body)
	}
	s.end = time.Since(g.epoch)
	return s
}

// closed runs a closed loop: each of `clients` callers sends its next
// request only after the previous answer is read. Requests are taken from
// the list in order (cycling), starting at index from. It ends after count
// requests (count > 0) or when the window elapses (window > 0), whichever
// is set. It returns the samples ordered by send time.
func (g *loadgen) closed(clients, from, count int, window time.Duration) []sample {
	var next atomic.Int64
	start := time.Now()
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if count > 0 && n >= count {
					return
				}
				if window > 0 && time.Since(start) >= window {
					return
				}
				per[c] = append(per[c], g.do(from+n, -1))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].sent < all[b].sent })
	return all
}

// open runs an open loop: request n is due n/rate after the start whatever
// the server does, is sent by the first free of `workers` senders, and is
// timed from its due time. A stalled server therefore delays — and is
// charged for — every request that came due meanwhile.
func (g *loadgen) open(rate float64, window time.Duration, workers, from int) []sample {
	total := int(rate * window.Seconds())
	// Buffered for every request, so the scheduler never blocks on senders.
	work := make(chan int, total)
	out := make([]sample, total)
	start := time.Now()
	t0 := time.Since(g.epoch)
	dueAt := func(n int) time.Duration { return time.Duration(float64(n) / rate * float64(time.Second)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range work {
				out[n] = g.do(from+n, t0+dueAt(n))
			}
		}()
	}
	// time.Sleep wakes up to a millisecond late on Linux (the runtime parks
	// in epoll_wait, whose timeout is in milliseconds), which at a 1 ms
	// send interval is the whole interval. nanosleep on a thread of its own
	// is accurate to tens of microseconds.
	runtime.LockOSThread()
	for n := 0; n < total; n++ {
		if d := dueAt(n) - time.Since(start); d > 0 {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only sends early by < 1 interval
		}
		work <- n
	}
	runtime.UnlockOSThread()
	close(work)
	wg.Wait()
	return out
}

// timings lists the successful samples' send times and latencies.
func timings(samples []sample) []timing {
	var out []timing
	for _, s := range samples {
		if s.err == nil && s.status == http.StatusOK {
			out = append(out, timing{at: s.sent, lat: s.latency()})
		}
	}
	return out
}
