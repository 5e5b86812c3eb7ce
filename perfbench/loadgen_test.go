package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock advances only when slept on or told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesArrivalsFromDueAndReportsStalls(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	start := c.now
	var dues []time.Duration
	late := openLoop(c, 1000, 10*time.Millisecond, func(k int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if k == 2 {
			c.now = c.now.Add(3500 * time.Microsecond) // a blocked hand-off
		}
	})
	if len(dues) != 10 || len(late) != 10 {
		t.Fatalf("released %d arrivals (%d lateness values), want 10", len(dues), len(late))
	}
	for k, d := range dues {
		if d != time.Duration(k)*time.Millisecond {
			t.Fatalf("arrival %d due at %v, want %v", k, d, time.Duration(k)*time.Millisecond)
		}
	}
	// The stall makes arrival 2 late by 3.5 ms and every arrival due
	// during it late by what remains of it; the schedule then recovers.
	want := []time.Duration{0, 0, 3500, 2500, 1500, 500, 0, 0, 0, 0}
	for k, w := range want {
		if late[k] != w*time.Microsecond {
			t.Fatalf("lateness = %v, want %v µs", late, want)
		}
	}
}

func TestOpenLoopReleasesRateTimesDuration(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	n := 0
	openLoop(c, 2500, 2*time.Second, func(int, time.Time) { n++ })
	if n != 5000 {
		t.Fatalf("released %d arrivals, want 5000", n)
	}
}

func TestWorkerPoolRunsEveryJobBeforeClose(t *testing.T) {
	var done atomic.Int64
	p := newWorkerPool(4, func(k int, due time.Time) {
		time.Sleep(time.Millisecond)
		done.Add(int64(k))
	})
	for k := 1; k <= 100; k++ {
		p.dispatch(k, time.Now())
	}
	p.close()
	if got := done.Load(); got != 5050 {
		t.Fatalf("sum of run jobs = %d, want 5050", got)
	}
}
