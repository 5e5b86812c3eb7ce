package main

// The traced run attributes time to modules from outside the program, by
// wrapping three seams it already exposes: loss.Features (kernels),
// cluster.Transport through cluster.Config.WrapTransport (collectives),
// and router.Backend (serving legs). Each wrapper forwards every call
// unchanged and only adds counters, so a traced run computes the same
// objectives and predictions as an untraced one.

import (
	"sync"
	"sync/atomic"
	"time"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/device"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/router"
)

// Kernel entry points of loss.Features, in report order.
const (
	kFusedGradient = iota
	kMulNTReduce
	kMulNT
	kMulTN
	numKernels
)

var kernelNames = [numKernels]string{"fused_gradient", "mulnt_reduce", "mulnt", "multn"}

// kernelCounters accumulates calls and busy time per kernel entry point,
// shared by every shard derived from one wrapped matrix.
type kernelCounters struct {
	calls   [numKernels]atomic.Int64
	ns      [numKernels]atomic.Int64
	shardNs atomic.Int64
}

func (c *kernelCounters) add(k int, t0 time.Time) {
	c.calls[k].Add(1)
	c.ns[k].Add(int64(time.Since(t0)))
}

// timedFeatures wraps a loss.Features and times each kernel call. Subset
// returns a wrapped subset, so every rank's shard built by dist.BuildLocal
// inherits the timing. Solvers must run without Jacobi preconditioning:
// loss.Softmax.HessianDiag type-switches on the concrete features type.
type timedFeatures struct {
	inner loss.Features
	c     *kernelCounters
}

func (f timedFeatures) Rows() int { return f.inner.Rows() }
func (f timedFeatures) Cols() int { return f.inner.Cols() }

func (f timedFeatures) MulNT(dev *device.Device, w []float64, m int, s []float64) {
	t0 := time.Now()
	f.inner.MulNT(dev, w, m, s)
	f.c.add(kMulNT, t0)
}

func (f timedFeatures) MulNTReduce(dev *device.Device, w []float64, m int, s []float64, fn func(lo, hi int) float64) float64 {
	t0 := time.Now()
	v := f.inner.MulNTReduce(dev, w, m, s, fn)
	f.c.add(kMulNTReduce, t0)
	return v
}

func (f timedFeatures) FusedGradient(dev *device.Device, w []float64, m int, s []float64, fn func(lo, hi int) float64, g []float64) float64 {
	t0 := time.Now()
	v := f.inner.FusedGradient(dev, w, m, s, fn, g)
	f.c.add(kFusedGradient, t0)
	return v
}

func (f timedFeatures) MulTN(dev *device.Device, d []float64, m int, g []float64) {
	t0 := time.Now()
	f.inner.MulTN(dev, d, m, g)
	f.c.add(kMulTN, t0)
}

func (f timedFeatures) Subset(idx []int) loss.Features {
	t0 := time.Now()
	sub := f.inner.Subset(idx)
	f.c.shardNs.Add(int64(time.Since(t0)))
	return timedFeatures{inner: sub, c: f.c}
}

// rankComm is one rank's transport account.
type rankComm struct {
	sends, bytes, sendNs, recvNs atomic.Int64
}

// commCounters holds the per-rank accounts of one cluster run.
type commCounters struct {
	ranks []rankComm
}

func newCommCounters(ranks int) *commCounters {
	return &commCounters{ranks: make([]rankComm, ranks)}
}

// wrap is a cluster.Config.WrapTransport hook.
func (c *commCounters) wrap(rank int, t cluster.Transport) cluster.Transport {
	return &timedTransport{inner: t, acct: &c.ranks[rank]}
}

// timedTransport wraps one rank's cluster.Transport, counting sends and
// payload bytes and timing Send and the wait inside Recv.
type timedTransport struct {
	inner cluster.Transport
	acct  *rankComm
}

func (t *timedTransport) Rank() int { return t.inner.Rank() }
func (t *timedTransport) Size() int { return t.inner.Size() }
func (t *timedTransport) Abort()    { t.inner.Abort() }
func (t *timedTransport) Close() error {
	return t.inner.Close()
}

func (t *timedTransport) Send(to int, data []float64) error {
	t0 := time.Now()
	err := t.inner.Send(to, data)
	t.acct.sendNs.Add(int64(time.Since(t0)))
	t.acct.sends.Add(1)
	t.acct.bytes.Add(int64(8 * len(data)))
	return err
}

func (t *timedTransport) Recv(from int) ([]float64, error) {
	t0 := time.Now()
	data, err := t.inner.Recv(from)
	t.acct.recvNs.Add(int64(time.Since(t0)))
	return data, err
}

// legLog records every scatter leg's duration, and the slowest leg of
// each in-flight router call, keyed by the call's batch.
type legLog struct {
	mu      sync.Mutex
	legs    []float64 // ms
	slowest map[*router.Batch]time.Duration
}

func newLegLog() *legLog {
	return &legLog{slowest: make(map[*router.Batch]time.Duration)}
}

// begin registers a call so its legs are attributed to it.
func (l *legLog) begin(b *router.Batch) {
	l.mu.Lock()
	l.slowest[b] = 0
	l.mu.Unlock()
}

// end returns the call's slowest leg and forgets the call.
func (l *legLog) end(b *router.Batch) time.Duration {
	l.mu.Lock()
	d := l.slowest[b]
	delete(l.slowest, b)
	l.mu.Unlock()
	return d
}

func (l *legLog) note(b *router.Batch, d time.Duration) {
	l.mu.Lock()
	l.legs = append(l.legs, ms(d))
	if cur, ok := l.slowest[b]; ok && d > cur {
		l.slowest[b] = d
	}
	l.mu.Unlock()
}

// take returns the leg durations recorded so far and clears them.
func (l *legLog) take() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.legs
	l.legs = nil
	return out
}

// timedBackend wraps a router.Backend and records each data-plane call
// (one scatter leg) in a legLog.
type timedBackend struct {
	inner router.Backend
	log   *legLog
}

func (t *timedBackend) Meta() (router.Meta, error) { return t.inner.Meta() }
func (t *timedBackend) Reload() (int64, error)     { return t.inner.Reload() }
func (t *timedBackend) Close()                     { t.inner.Close() }

func (t *timedBackend) Predict(b *router.Batch, out []int) error {
	t0 := time.Now()
	err := t.inner.Predict(b, out)
	t.log.note(b, time.Since(t0))
	return err
}

func (t *timedBackend) Proba(b *router.Batch, out []float64) error {
	t0 := time.Now()
	err := t.inner.Proba(b, out)
	t.log.note(b, time.Since(t0))
	return err
}

func (t *timedBackend) PartialScores(b *router.Batch, cols int, out []float64) (int64, error) {
	t0 := time.Now()
	v, err := t.inner.PartialScores(b, cols, out)
	t.log.note(b, time.Since(t0))
	return v, err
}
