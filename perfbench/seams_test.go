package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/router"
	"newtonadmm/internal/sparse"
)

func testFeatures(t *testing.T) map[string]loss.Features {
	t.Helper()
	const rows, cols = 37, 11
	dense := linalg.NewMatrix(rows, cols)
	var coords []sparse.Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := math.Sin(float64(3*i+7*j)) * float64(j+1)
			dense.Row(i)[j] = v
			if (i+j)%3 == 0 {
				coords = append(coords, sparse.Coord{Row: i, Col: j, Val: v})
			}
		}
	}
	csr, err := sparse.FromCoords(rows, cols, coords)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]loss.Features{"dense": loss.Dense{M: dense}, "sparse": loss.Sparse{M: csr}}
}

// TestTimedFeaturesForwardsExactly runs every kernel entry point through
// the wrapper and directly and requires bitwise-identical results.
func TestTimedFeaturesForwardsExactly(t *testing.T) {
	dev := device.New("test", 2)
	defer dev.Close()
	for name, inner := range testFeatures(t) {
		t.Run(name, func(t *testing.T) {
			c := &kernelCounters{}
			sub := timedFeatures{inner: inner, c: c}.Subset([]int{0, 2, 3, 5, 8, 13, 21, 34})
			wrapped, ok := sub.(timedFeatures)
			if !ok {
				t.Fatalf("Subset returned %T, want the wrapper", sub)
			}
			plain := inner.Subset([]int{0, 2, 3, 5, 8, 13, 21, 34})
			if wrapped.Rows() != plain.Rows() || wrapped.Cols() != plain.Cols() {
				t.Fatalf("shape %dx%d, want %dx%d", wrapped.Rows(), wrapped.Cols(), plain.Rows(), plain.Cols())
			}
			const m = 3
			n, p := plain.Rows(), plain.Cols()
			w := make([]float64, m*p)
			for i := range w {
				w[i] = math.Cos(float64(i))
			}
			fn := func(lo, hi int) float64 { return float64(hi - lo) }

			type out struct {
				s, g []float64
				v    float64
			}
			run := func(f loss.Features) []out {
				var outs []out
				s := make([]float64, n*m)
				f.MulNT(dev, w, m, s)
				outs = append(outs, out{s: s})
				s = make([]float64, n*m)
				v := f.MulNTReduce(dev, w, m, s, fn)
				outs = append(outs, out{s: s, v: v})
				s, g := make([]float64, n*m), make([]float64, m*p)
				v = f.FusedGradient(dev, w, m, s, fn, g)
				outs = append(outs, out{s: s, g: g, v: v})
				g = make([]float64, m*p)
				f.MulTN(dev, outs[0].s, m, g)
				return append(outs, out{g: g})
			}
			if got, want := run(wrapped), run(plain); !reflect.DeepEqual(got, want) {
				t.Fatalf("wrapped kernels differ from the direct calls:\n got %v\nwant %v", got, want)
			}
			for k := 0; k < numKernels; k++ {
				if c.calls[k].Load() != 1 {
					t.Errorf("%s counted %d calls, want 1", kernelNames[k], c.calls[k].Load())
				}
			}
			if c.shardNs.Load() <= 0 {
				t.Errorf("Subset time not recorded")
			}
		})
	}
}

func TestTimedTransportForwardsExactly(t *testing.T) {
	cc := newCommCounters(2)
	group := cluster.NewInprocGroup(2)
	a, b := cc.wrap(0, group[0]), cc.wrap(1, group[1])
	if a.Rank() != 0 || b.Rank() != 1 || a.Size() != 2 {
		t.Fatalf("rank/size not forwarded: %d %d %d", a.Rank(), b.Rank(), a.Size())
	}
	payload := []float64{1.5, -2, math.Inf(1), math.SmallestNonzeroFloat64}
	if err := a.Send(1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(0)
	if err != nil || !reflect.DeepEqual(got, payload) {
		t.Fatalf("Recv = %v, %v; want %v", got, err, payload)
	}
	if s, by := cc.ranks[0].sends.Load(), cc.ranks[0].bytes.Load(); s != 1 || by != 32 {
		t.Fatalf("rank 0 counted %d sends, %d bytes; want 1, 32", s, by)
	}
	if err := a.Send(5, payload); err == nil {
		t.Fatal("send to an invalid rank succeeded through the wrapper")
	}
	a.Abort()
	if _, err := b.Recv(0); !errors.Is(err, cluster.ErrAborted) {
		t.Fatalf("Recv after Abort = %v, want ErrAborted", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, payload); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("Send after Close = %v, want ErrPeerLost", err)
	}
}

// fakeBackend records what it was called with and returns fixed results.
type fakeBackend struct {
	calls  []string
	batch  *router.Batch
	cols   int
	delay  time.Duration
	err    error
	closed bool
}

func (f *fakeBackend) Meta() (router.Meta, error) {
	f.calls = append(f.calls, "meta")
	return router.Meta{Classes: 7, Features: 3, Version: 9}, f.err
}

func (f *fakeBackend) Predict(b *router.Batch, out []int) error {
	f.calls, f.batch = append(f.calls, "predict"), b
	time.Sleep(f.delay)
	out[0] = 4
	return f.err
}

func (f *fakeBackend) Proba(b *router.Batch, out []float64) error {
	f.calls, f.batch = append(f.calls, "proba"), b
	out[0] = 0.25
	return f.err
}

func (f *fakeBackend) PartialScores(b *router.Batch, cols int, out []float64) (int64, error) {
	f.calls, f.batch, f.cols = append(f.calls, "scores"), b, cols
	out[0] = -1.5
	return 11, f.err
}

func (f *fakeBackend) Reload() (int64, error) {
	f.calls = append(f.calls, "reload")
	return 12, f.err
}

func (f *fakeBackend) Close() { f.closed = true }

func TestTimedBackendForwardsExactly(t *testing.T) {
	boom := errors.New("boom")
	inner := &fakeBackend{err: boom, delay: 2 * time.Millisecond}
	log := newLegLog()
	tb := &timedBackend{inner: inner, log: log}
	var b router.Batch
	b.AddDense([]float64{1, 2, 3})

	log.begin(&b)
	ints := make([]int, 1)
	if err := tb.Predict(&b, ints); err != boom || ints[0] != 4 || inner.batch != &b {
		t.Fatalf("Predict = %v, out %v, batch forwarded %v", err, ints, inner.batch == &b)
	}
	floats := make([]float64, 1)
	if err := tb.Proba(&b, floats); err != boom || floats[0] != 0.25 {
		t.Fatalf("Proba = %v, out %v", err, floats)
	}
	if v, err := tb.PartialScores(&b, 6, floats); v != 11 || err != boom || floats[0] != -1.5 || inner.cols != 6 {
		t.Fatalf("PartialScores = %v, %v, out %v, cols %d", v, err, floats, inner.cols)
	}
	if slowest := log.end(&b); slowest < 2*time.Millisecond {
		t.Fatalf("slowest leg %v, want the 2 ms Predict", slowest)
	}
	if legs := log.take(); len(legs) != 3 {
		t.Fatalf("recorded %d legs, want 3", len(legs))
	}

	if m, err := tb.Meta(); err != boom || m.Classes != 7 || m.Version != 9 {
		t.Fatalf("Meta = %+v, %v", m, err)
	}
	if v, err := tb.Reload(); v != 12 || err != boom {
		t.Fatalf("Reload = %v, %v", v, err)
	}
	tb.Close()
	want := []string{"predict", "proba", "scores", "meta", "reload"}
	if !reflect.DeepEqual(inner.calls, want) || !inner.closed {
		t.Fatalf("inner saw %v (closed %v), want %v and Close", inner.calls, inner.closed, want)
	}
}
