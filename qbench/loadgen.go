package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one pre-encoded request of a workload's mix.
type request struct {
	kind string // endpoint name as the service's metrics spell it
	path string
	body []byte
	jobs int // jobs the request carries (a batch carries its whole queue)
	// want, when set, is the exact response body a direct call into the
	// layers produced for the same input.
	want []byte
	// check, when set, validates a response whose exact bytes cannot be
	// known in advance (the write path changes later answers).
	check func(body []byte) error
}

// verify classifies one response: transport errors, non-2xx statuses and
// failed output checks are all failures.
func (r *request) verify(status int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s: status %d: %.200s", r.kind, status, body)
	}
	if r.want != nil && !bytes.Equal(body, r.want) {
		return fmt.Errorf("%s: response %.200q differs from the direct call's %.200q", r.kind, body, r.want)
	}
	if r.check != nil {
		return r.check(body)
	}
	return nil
}

// client sends requests over at most conns loopback connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		Proxy:               nil, // never route loopback traffic through an environment proxy
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and reads the whole response.
func (c *client) do(ctx context.Context, r *request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, body, err
}

// phase is what one load phase measured.
type phase struct {
	sent, failed int
	jobs         int            // jobs carried by successful requests
	acked        map[string]int // successful requests by kind
	latMs        []float64      // successful requests: due (open loop) or sent (closed loop) to response read
	lagMs        []float64      // open loop: how late each request was sent
	within       int            // successful requests within the latency limit
	elapsed      time.Duration
	firstErr     error
}

func (p *phase) ok() int { return p.sent - p.failed }

// errOverrun marks open-loop requests the generator could not send before
// the phase's grace deadline: they count as failures and latency misses.
var errOverrun = errors.New("open loop: request not sent before the phase deadline")

// overrunGrace is how far past its schedule an open-loop phase may run.
const overrunGrace = 5 * time.Second

// arrivals returns the due offsets of an open-loop phase: n = rate × dur
// requests, evenly spaced at 1/rate.
func arrivals(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

type outcome struct {
	kind     string
	lag, lat time.Duration
	jobs     int
	err      error
}

// openLoop sends reqs[(first+i) % len] at each due offset, whatever the
// server's progress, from workers goroutines sharing the schedule.
//
// Latency is timed from the due time. Each connection keeps the timeline
// an exactly timed generator would have followed: a request starts at its
// due time or when the connection's previous request would have finished,
// whichever is later, and takes its measured response time. A stall thus
// charges every request queued behind it, while the generator's own timer
// lateness (sleeps overshoot by up to a millisecond) is not charged to the
// server; it is reported separately as lag.
func openLoop(ctx context.Context, c *client, reqs []*request, first int, due []time.Duration,
	workers int, limit time.Duration) phase {

	outs := make([]outcome, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := overrunGrace
	if len(due) > 0 {
		deadline += due[len(due)-1]
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var free time.Duration // when an exactly timed generator's connection frees up
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				if d := due[i] - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(t0)
				if sent > deadline {
					outs[i] = outcome{err: errOverrun}
					continue
				}
				r := reqs[(first+i)%len(reqs)]
				status, body, err := c.do(ctx, r)
				free = max(due[i], free) + time.Since(t0) - sent
				outs[i] = outcome{kind: r.kind, lag: sent - due[i], lat: free - due[i], jobs: r.jobs,
					err: r.verify(status, body, err)}
			}
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(t0)}
	for _, o := range outs {
		p.add(o, limit)
	}
	return p
}

// closedLoop sends n requests from workers clients back to back: each
// sends its next request as soon as the previous response is read. A fixed
// count, rather than a fixed duration, keeps the state a writing workload
// reaches independent of the machine's speed.
func closedLoop(ctx context.Context, c *client, reqs []*request, first, n int,
	workers int, limit time.Duration) phase {

	var next atomic.Int64
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				r := reqs[(first+i)%len(reqs)]
				start := time.Since(t0)
				status, body, err := c.do(ctx, r)
				mine = append(mine, outcome{kind: r.kind, lat: time.Since(t0) - start, jobs: r.jobs,
					err: r.verify(status, body, err)})
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(t0)}
	for _, o := range outs {
		p.add(o, limit)
	}
	return p
}

// merge adds a later phase of the same kind to p.
func (p *phase) merge(q phase) {
	p.sent += q.sent
	p.failed += q.failed
	p.jobs += q.jobs
	for k, n := range q.acked {
		if p.acked == nil {
			p.acked = map[string]int{}
		}
		p.acked[k] += n
	}
	p.latMs = append(p.latMs, q.latMs...)
	p.lagMs = append(p.lagMs, q.lagMs...)
	p.within += q.within
	p.elapsed += q.elapsed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func (p *phase) add(o outcome, limit time.Duration) {
	p.sent++
	if o.err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = o.err
		}
		return
	}
	p.jobs += o.jobs
	if p.acked == nil {
		p.acked = map[string]int{}
	}
	p.acked[o.kind]++
	p.latMs = append(p.latMs, float64(o.lat)/1e6)
	p.lagMs = append(p.lagMs, float64(o.lag)/1e6)
	if o.lat <= limit {
		p.within++
	}
}
