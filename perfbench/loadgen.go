package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// timerSlack is how late Linux wakes a nanosleep(2) by default.
const timerSlack = 50 * time.Microsecond

// wallClock sleeps with nanosleep(2): time.Sleep rounds sub-millisecond
// sleeps up to about a millisecond on Linux, which would make every
// request late by half a millisecond on average. nanosleep wakes up to
// timerSlack late, so wallClock asks for that much less and spins out
// the rest, which is rarely any.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(d time.Duration) {
	until := time.Now().Add(d)
	if d > timerSlack {
		ts := syscall.NsecToTimespec(int64(d - timerSlack))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only wakes early
	}
	for time.Now().Before(until) {
	}
}

// openLoop is the benchmark's open-loop generator: one scheduling
// goroutine (the caller's) releases arrivals evenly spaced at rate per
// second for dur, handing arrival k, due at start+k/rate, to dispatch.
// It returns each arrival's lateness: when dispatch returned, minus when
// the arrival was due. A dispatch that blocks (no free worker) or a
// stalled scheduler delays every later arrival, and the lateness shows
// it; callers time each request from its due time, so the delay counts.
func openLoop(c clock, rate float64, dur time.Duration, dispatch func(k int, due time.Time)) []time.Duration {
	start := c.Now()
	n := int(rate*dur.Seconds() + 1e-9)
	late := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := due.Sub(c.Now()); d > 0 {
			c.Sleep(d)
		}
		dispatch(k, due)
		late = append(late, c.Now().Sub(due))
	}
	return late
}

// workerPool runs handed-off requests on a fixed set of goroutines.
type workerPool struct {
	jobs chan job
	wg   sync.WaitGroup
}

type job struct {
	k   int
	due time.Time
}

func newWorkerPool(n int, run func(k int, due time.Time)) *workerPool {
	p := &workerPool{jobs: make(chan job)}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				run(j.k, j.due)
			}
		}()
	}
	return p
}

// dispatch hands one arrival to a free worker, blocking until one is,
// and yields so the worker starts now: otherwise it waits in this
// processor's run queue while the scheduler sleeps in a system call.
func (p *workerPool) dispatch(k int, due time.Time) {
	p.jobs <- job{k, due}
	runtime.Gosched()
}

// close waits for every handed-off request to finish.
func (p *workerPool) close() {
	close(p.jobs)
	p.wg.Wait()
}
