package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"newtonadmm"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/router"
)

// loadWorkers bounds the requests in flight; a full pool blocks the
// generator, which then shows as lateness.
const loadWorkers = 64

// fleetsPerRun is how many fresh fleets an untraced serving run measures
// in turn, each at the light and then the heavy rate. On a shared 2-core
// host the latency of one fleet differs from the next about as much as
// one process differs from the next, so a run summarises several.
const fleetsPerRun = 5

// spanLen is the span whose median and tail a phase summarises
// separately; a run reports the median across its spans, so a
// disturbance from outside the process moves one span, not the run.
const spanLen = time.Second

// tailQ is the serving tail quantile. Each span holds hundreds of
// requests or more, so p90 keeps at least ten samples beyond it. On a
// shared 2-vCPU AMD EPYC host the per-span p99 on serve-replica-tcp
// ranged from 0.55 to 0.87 ms between fleets while p90 stayed within
// 3 %: p99 mostly measured disturbances from outside the process (see
// README.md).
const tailQ = 0.9

// served is the request side of a serving workload: the test split's
// rows, the offline prediction for each, its label, and the seed's order.
type served struct {
	sparse bool
	dense  [][]float64
	idx    [][]int
	val    [][]float64
	want   []int
	label  []int
	order  []int
}

func (s *served) rows() int { return len(s.want) }

// prepareServing trains the served model (fixed, seed-independent) and
// computes the offline prediction of every test row with Model.Predict
// or Model.PredictSparse. The seed only orders the requests.
func prepareServing(sp serveSpec, seed int64) (*newtonadmm.Model, *served, error) {
	ds, err := datasets.Generate(sp.data)
	if err != nil {
		return nil, nil, err
	}
	// Generate leaves its full feature matrix behind as garbage. Whether
	// a collection happened to free it before training otherwise decided
	// the run's peak resident set: 47 MB or 63 MB on serve-replica-tcp.
	runtime.GC()
	res, err := core.Solve(cluster.Config{Ranks: 2}, ds, core.Options{Lambda: lambda, Epochs: sp.modelEpochs})
	if err != nil {
		return nil, nil, fmt.Errorf("training the served model: %w", err)
	}
	m := &newtonadmm.Model{Weights: res.Z, Classes: ds.Classes, Features: ds.NumFeatures(), Solver: newtonadmm.SolverNewtonADMM}
	s := &served{sparse: sp.sparse, label: ds.Ytest}
	switch x := ds.Xtest.(type) {
	case loss.Dense:
		for i := 0; i < x.M.Rows; i++ {
			s.dense = append(s.dense, x.M.Row(i))
		}
		s.want, err = m.Predict(s.dense)
	case loss.Sparse:
		rows := make([]newtonadmm.SparseRow, x.M.NumRows)
		for i := range rows {
			lo, hi := x.M.RowPtr[i], x.M.RowPtr[i+1]
			s.idx = append(s.idx, x.M.Col[lo:hi])
			s.val = append(s.val, x.M.Val[lo:hi])
			rows[i] = newtonadmm.SparseRow{Indices: s.idx[i], Values: s.val[i]}
		}
		s.want, err = m.PredictSparse(rows)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("offline predictions: %w", err)
	}
	if (len(s.dense) > 0) == sp.sparse {
		return nil, nil, fmt.Errorf("workload expects sparse=%v rows", sp.sparse)
	}
	s.order = rand.New(rand.NewSource(seed)).Perm(s.rows())
	return m, s, nil
}

// fleet is a router over two in-process replicas joined over the binary
// frame plane (loopback TCP).
type fleet struct {
	servers []*newtonadmm.ModelServer
	tcp     []*router.TCPBackend
	rt      *router.Router
	legs    *legLog // nil unless traced
}

// buildFleet starts the replicas and the router; with legs set, every
// backend is wrapped to record its scatter legs.
func buildFleet(m *newtonadmm.Model, sp serveSpec, legs *legLog) (*fleet, error) {
	f := &fleet{legs: legs}
	var backends []router.Backend
	for i := 0; i < 2; i++ {
		so := newtonadmm.ServeOptions{WireAddr: "127.0.0.1:0"}
		if sp.mode == router.ModeClass {
			so.ShardIndex, so.ShardCount = i, 2
		}
		ms, err := newtonadmm.Serve(m, so)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, ms)
		tb := &router.TCPBackend{Addr: ms.WireAddr()}
		f.tcp = append(f.tcp, tb)
		if legs != nil {
			backends = append(backends, &timedBackend{inner: tb, log: legs})
		} else {
			backends = append(backends, tb)
		}
	}
	rt, err := router.New(backends, router.Options{Mode: sp.mode})
	if err != nil {
		for _, b := range backends {
			b.Close()
		}
		f.close()
		return nil, err
	}
	f.rt = rt
	return f, nil
}

func (f *fleet) close() {
	if f.rt != nil {
		f.rt.Close()
	}
	for _, ms := range f.servers {
		ms.Close()
	}
}

// call sends row i through the router the way the program's own router
// edge does (one batch per request, with the router's trace sampling)
// and returns the prediction and, when traced, the call's slowest leg.
func (f *fleet) call(s *served, i int) (int, time.Duration, error) {
	var b router.Batch
	if s.sparse {
		b.AddCSR(s.idx[i], s.val[i])
	} else {
		b.AddDense(s.dense[i])
	}
	if f.legs != nil {
		f.legs.begin(&b)
	}
	b.Trace = f.rt.StartTrace(time.Now())
	var out [1]int
	err := f.rt.Predict(&b, out[:])
	f.rt.FinishTrace(b.Trace, time.Now())
	var slowest time.Duration
	if f.legs != nil {
		slowest = f.legs.end(&b)
	}
	return out[0], slowest, err
}

// phase is what one open-loop phase observed.
type phase struct {
	lat, late, calls, self []float64 // ms; calls and self only when traced
	p50s, tails            []float64 // per-span median and tailQ latency, ms
	sent                   int
	errs                   int    // requests that returned an error
	wrong                  int    // answers that differ from the offline prediction
	slow                   int    // correct answers later than the latency limit
	firstErr               string // the first error, for the log
	hits                   int    // served predictions equal to the label
}

func (p *phase) add(q phase) {
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	p.calls = append(p.calls, q.calls...)
	p.self = append(p.self, q.self...)
	p.p50s = append(p.p50s, q.p50s...)
	p.tails = append(p.tails, q.tails...)
	p.sent += q.sent
	p.errs += q.errs
	p.wrong += q.wrong
	p.slow += q.slow
	p.hits += q.hits
	if p.firstErr == "" {
		p.firstErr = q.firstErr
	}
}

// run drives the fleet open-loop at rate for dur. next is the index of
// the first request in the seed's order; it advances past the phase.
func (f *fleet) run(s *served, rate float64, dur time.Duration, limit time.Duration, next *int) phase {
	n := int(rate*dur.Seconds()) + 1
	lat := make([]float64, n)
	calls := make([]float64, n)
	self := make([]float64, n)
	errs := make([]error, n)
	state := make([]int8, n) // 0 ok, 1 error, 2 wrong, 3 slow
	hit := make([]bool, n)
	base := *next
	pool := newWorkerPool(loadWorkers, func(k int, due time.Time) {
		row := s.order[(base+k)%s.rows()]
		t0 := time.Now()
		got, slowest, err := f.call(s, row)
		end := time.Now()
		lat[k] = ms(end.Sub(due))
		calls[k] = ms(end.Sub(t0))
		self[k] = ms(end.Sub(t0) - slowest)
		switch {
		case err != nil:
			state[k], errs[k] = 1, err
		case got != s.want[row]:
			state[k] = 2
		case end.Sub(due) > limit:
			state[k] = 3
		}
		hit[k] = err == nil && got == s.label[row]
	})
	lateness := openLoop(wallClock{}, rate, dur, pool.dispatch)
	pool.close()
	sent := len(lateness)
	*next += sent
	p := phase{sent: sent, lat: lat[:sent]}
	p.p50s, p.tails = spans(p.lat, rate)
	for _, d := range lateness {
		p.late = append(p.late, ms(d))
	}
	if f.legs != nil {
		p.calls, p.self = calls[:sent], self[:sent]
	}
	for k := 0; k < sent; k++ {
		switch state[k] {
		case 1:
			p.errs++
			if p.firstErr == "" {
				p.firstErr = errs[k].Error()
			}
		case 2:
			p.wrong++
		case 3:
			p.slow++
		}
		if hit[k] {
			p.hits++
		}
	}
	return p
}

// warmUp sends a few sequential requests through a new fleet, which
// opens the pooled connections and sizes the replicas' scratch, and
// checks their answers.
func warmUp(f *fleet, s *served) error {
	for k := 0; k < 64; k++ {
		row := s.order[k%s.rows()]
		got, _, err := f.call(s, row)
		if err != nil || got != s.want[row] {
			return fmt.Errorf("warm-up request for row %d: got %d want %d (%v)", row, got, s.want[row], err)
		}
	}
	return nil
}

// startFleet builds a fleet and warms it up.
func startFleet(m *newtonadmm.Model, sp serveSpec, s *served, legs *legLog) (*fleet, error) {
	f, err := buildFleet(m, sp, legs)
	if err != nil {
		return nil, err
	}
	if err := warmUp(f, s); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// setUp goes from nothing to a warm fleet setupReps times — generate the
// data, train the served model, compute the offline predictions, start
// the replicas and the router — and returns the last fleet with the
// median set-up time.
func setUp(sp serveSpec, seed int64) (*newtonadmm.Model, *served, *fleet, float64, error) {
	var times []float64
	var m *newtonadmm.Model
	var s *served
	var f *fleet
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if m, s, err = prepareServing(sp, seed); err != nil {
			return nil, nil, nil, 0, err
		}
		if f, err = startFleet(m, sp, s, nil); err != nil {
			return nil, nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return m, s, f, median(times), nil
}

// note counts the phase's requests in the run and prints it.
func (p phase) note(res *runResult, label string) {
	res.attempted += p.sent
	res.failed += p.errs + p.wrong
	res.ok += p.sent - p.errs - p.wrong - p.slow
	p.print(label)
}

func (p phase) print(label string) {
	s := summarize(p.lat)
	l := summarize(p.late)
	fmt.Printf("%s: sent %d errors %d wrong %d slow %d; latency ms n=%d p50=%.3f tail(%s)=%.3f; late ms p50=%.3f tail(%s)=%.3f %s\n",
		label, p.sent, p.errs, p.wrong, p.slow, s.N, s.P50, s.TailAt, s.Tail, l.P50, l.TailAt, l.Tail, p.firstErr)
}

// runServe measures one serving workload. An untraced run alternates
// light and heavy phases over the window. A traced run measures a light
// phase untraced, then light and heavy phases (and, where enabled, the
// max-rate search) on a fleet whose backends are wrapped.
func runServe(sp serveSpec, seed int64, window time.Duration, traced bool) (*runResult, error) {
	m, s, f, setup, err := setUp(sp, seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: map[string]float64{}}
	next := 64
	if !traced {
		part := window / (2 * fleetsPerRun)
		var light, heavy phase
		for i := 0; i < fleetsPerRun; i++ {
			if i > 0 {
				f.close()
				if f, err = startFleet(m, sp, s, nil); err != nil {
					return nil, err
				}
			}
			runtime.GC()
			light.add(f.run(s, sp.lightRate, part, sp.limit, &next))
			heavy.add(f.run(s, sp.heavyRate, part, sp.limit, &next))
		}
		f.close()
		light.note(res, fmt.Sprintf("light %.0f req/s", sp.lightRate))
		heavy.note(res, fmt.Sprintf("heavy %.0f req/s", sp.heavyRate))
		fmt.Printf("span medians: light p50 %.4f p%g %.4f; heavy p50 %.4f p%g %.4f\n",
			median(light.p50s), 100*tailQ, median(light.tails), median(heavy.p50s), 100*tailQ, median(heavy.tails))
		res.metrics["setup_s"] = setup
		res.metrics["peak_rss_mb"] = peakRSSMB()
		res.metrics["ok_ratio"] = float64(res.ok) / float64(res.attempted)
		res.metrics["test_acc"] = float64(light.hits+heavy.hits) / float64(light.sent+heavy.sent)
		res.metrics["p50_ms"] = median(light.p50s)
		res.metrics["tail_ms"] = median(heavy.tails)
		return res, nil
	}

	quarter := window / 4
	runtime.GC()
	base := f.run(s, sp.lightRate, quarter, sp.limit, &next)
	base.note(res, "untraced light")
	f.close()

	legs := newLegLog()
	if f, err = startFleet(m, sp, s, legs); err != nil {
		return nil, err
	}
	legs.take()
	defer f.close()
	runtime.GC()
	before := snapshotFleet(f)
	light := f.run(s, sp.lightRate, quarter, sp.limit, &next)
	heavy := f.run(s, sp.heavyRate, quarter, sp.limit, &next)
	after := snapshotFleet(f)
	light.note(res, "traced light")
	heavy.note(res, "traced heavy")
	var both phase
	both.add(light)
	both.add(heavy)
	layerMetrics(res.metrics, before, after, both, legs.take())
	res.metrics["loadgen.p50_ms.light"] = summarize(light.lat).P50
	res.metrics["loadgen.p99_ms.light"] = p99(light.lat)
	res.metrics["loadgen.p50_ms.heavy"] = summarize(heavy.lat).P50
	res.metrics["loadgen.p99_ms.heavy"] = p99(heavy.lat)
	res.metrics["tracing.p50_ms.untraced"] = median(base.p50s)
	res.metrics["tracing.p50_ms.traced"] = median(light.p50s)
	res.metrics["tracing.overhead_pct"] = 100 * (median(light.p50s)/median(base.p50s) - 1)
	if sp.maxRate {
		res.metrics["loadgen.max_rate_ok"] = maxRateOK(f, s, sp, &next, res)
	}
	return res, nil
}

// maxRateOK steps the open-loop rate up from the heavy rate by 25% per
// 1.5 s step and returns the highest rate at which every request
// succeeded, the p99 stayed within maxRateLimit and the generator's p99
// lateness did too (no growing backlog).
func maxRateOK(f *fleet, s *served, sp serveSpec, next *int, res *runResult) float64 {
	best := 0.0
	for rate, i := sp.heavyRate, 0; i < 8; rate, i = rate*1.25, i+1 {
		p := f.run(s, rate, 1500*time.Millisecond, maxRateLimit, next)
		// Steps past capacity are meant to miss the limit, so only wrong
		// answers count against the run.
		res.attempted += p.sent
		res.failed += p.wrong
		p.print(fmt.Sprintf("max-rate step %.0f req/s", rate))
		if p.errs+p.wrong+p.slow > 0 || p99(p.lat) > ms(maxRateLimit) || p99(p.late) > ms(maxRateLimit) {
			break
		}
		best = rate
	}
	return best
}

func p99(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.99)
}

// fleetSnapshot holds the program's own counters at one instant.
type fleetSnapshot struct {
	batches, completed, rejected int64
	requests, failovers, skew    int64
	wireBytes                    uint64
	mem                          runtime.MemStats
}

func snapshotFleet(f *fleet) fleetSnapshot {
	var s fleetSnapshot
	for _, ms := range f.servers {
		st := ms.Batcher().Stats()
		s.batches += st.Batches
		s.completed += st.Completed
		s.rejected += st.Rejected
	}
	rs := f.rt.Stats()
	s.requests, s.failovers, s.skew = rs.Requests, rs.Failovers, rs.SkewRetry
	for _, tb := range f.tcp {
		sent, recv := tb.BytesOnWire()
		s.wireBytes += sent + recv
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// layerMetrics fills the serving per-layer metrics of the traced phases.
func layerMetrics(out map[string]float64, a, b fleetSnapshot, p phase, legs []float64) {
	batches := float64(b.batches - a.batches)
	out["serve.batches"] = batches
	if batches > 0 {
		out["serve.rows_per_batch"] = float64(b.completed-a.completed) / batches
	}
	out["serve.rejected"] = float64(b.rejected - a.rejected)
	out["router.call_ms.p50"] = summarize(p.calls).P50
	out["router.call_ms.p99"] = p99(p.calls)
	out["router.legs"] = float64(len(legs)) / float64(p.sent)
	out["router.leg_ms.p50"] = summarize(legs).P50
	out["router.leg_ms.p99"] = p99(legs)
	out["router.failovers"] = float64(b.failovers - a.failovers)
	out["router.skew_retries"] = float64(b.skew - a.skew)
	out["router.self_ms.p50"] = summarize(p.self).P50
	out["wire.bytes_per_req"] = float64(b.wireBytes-a.wireBytes) / float64(p.sent)
	out["loadgen.late_ms.p99"] = p99(p.late)
	out["loadgen.late_ms.max"] = maxOf(p.late)
	out["runtime.alloc_mb"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / 1e6
	out["runtime.gc_count"] = float64(b.mem.NumGC - a.mem.NumGC)
	out["runtime.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// spans splits latencies recorded in arrival order at rate into spanLen
// spans and returns each span's median and tailQ quantile.
func spans(lat []float64, rate float64) (p50s, tails []float64) {
	n := len(lat)
	if n == 0 {
		return nil, nil
	}
	nb := int(math.Max(1, math.Round(float64(n)/(rate*spanLen.Seconds()))))
	for b := 0; b < nb; b++ {
		s := append([]float64(nil), lat[b*n/nb:(b+1)*n/nb]...)
		sort.Float64s(s)
		p50s = append(p50s, quantile(s, 0.5))
		tails = append(tails, quantile(s, tailQ))
	}
	return p50s, tails
}
