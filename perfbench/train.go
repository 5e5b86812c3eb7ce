package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/loss"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// makeTrainData generates the workload's dataset and permutes the rows
// inside each rank's contiguous shard by the seed. Every seed therefore
// poses the same optimisation problem (the objective is a sum over rows
// and each rank keeps the same rows) in a different row order, so the
// epochs to the target do not depend on the seed.
func makeTrainData(sp trainSpec, seed int64) (*datasets.Dataset, error) {
	ds, err := datasets.Generate(sp.data)
	if err != nil {
		return nil, err
	}
	n := ds.TrainSize()
	rng := rand.New(rand.NewSource(seed))
	perm := make([]int, 0, n)
	for r := 0; r < sp.ranks; r++ {
		idx := datasets.Shard(n, sp.ranks, r)
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		perm = append(perm, idx...)
	}
	y := make([]int, n)
	for k, i := range perm {
		y[k] = ds.Ytrain[i]
	}
	ds.Xtrain = ds.Xtrain.Subset(perm)
	ds.Ytrain = y
	return ds, nil
}

// solveRecord is one solve's outcome.
type solveRecord struct {
	wall, virtual time.Duration
	epochs        int
	objective     float64
	acc           float64
	ok            bool
	why           string
	stats         []cluster.NodeStats
}

// solve runs Newton-ADMM on ds until the target and checks the result.
func solve(sp trainSpec, ds *datasets.Dataset, acc *loss.Softmax, wrap func(int, cluster.Transport) cluster.Transport) solveRecord {
	ccfg := cluster.Config{Ranks: sp.ranks, UseTCP: sp.tcp, WrapTransport: wrap}
	opts := core.Options{Lambda: lambda, TargetObjective: sp.target, Epochs: sp.epochCap}
	// Every solve starts from a collected heap, so each one pays for the
	// garbage it makes itself and not for its predecessor's.
	runtime.GC()
	t0 := time.Now()
	res, err := core.Solve(ccfg, ds, opts)
	rec := solveRecord{wall: time.Since(t0)}
	if err != nil {
		rec.why = err.Error()
		return rec
	}
	rec.stats = res.Stats
	rec.virtual = cluster.MaxClock(res.Stats)
	final, _ := res.Trace.Final()
	rec.epochs, rec.objective = final.Epoch, final.Objective
	rec.acc = acc.Accuracy(ds.Xtest, ds.Ytest, res.Z)
	switch {
	case final.Objective > sp.target:
		rec.why = fmt.Sprintf("target %g not reached in %d epochs (objective %.10g)", sp.target, final.Epoch, final.Objective)
	case math.Abs(final.Objective-sp.refObjective) > sp.relTol*math.Abs(sp.refObjective):
		rec.why = fmt.Sprintf("objective %.10g at the target is not within %g of the reference %.10g", final.Objective, sp.relTol, sp.refObjective)
	case rec.acc < sp.accFloor:
		rec.why = fmt.Sprintf("test accuracy %.4f below the floor %.4f", rec.acc, sp.accFloor)
	default:
		rec.ok = true
	}
	return rec
}

// runTrain measures one training workload. An untraced run solves
// repeatedly for the window. A traced run spends half the window
// untraced and half traced, so it can report the tracing overhead and
// check that tracing changes no objective.
func runTrain(sp trainSpec, seed int64, window time.Duration, traced bool) (*runResult, error) {
	var setups []float64
	var ds *datasets.Dataset
	for i := 0; i < setupReps; i++ {
		ds = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if ds, err = makeTrainData(sp, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	dev := device.New("accuracy", 1)
	defer dev.Close()
	acc, err := loss.NewSoftmax(dev, ds.Xtest, ds.Ytest, ds.Classes, 0)
	if err != nil {
		return nil, err
	}

	res := &runResult{metrics: map[string]float64{}}
	note := func(label string, r solveRecord) {
		res.attempted++
		if r.ok {
			res.ok++
		} else {
			res.failed++
		}
		fmt.Printf("%s solve: wall %.3fs virtual %.3fs epochs %d objective %.10g test_acc %.4f ok=%v %s\n",
			label, r.wall.Seconds(), r.virtual.Seconds(), r.epochs, r.objective, r.acc, r.ok, r.why)
	}

	// The first solve is checked but not timed: it pays the process's
	// one-time costs (fresh heap pages, first use of every code path).
	note("warm-up", solve(sp, ds, acc, nil))

	untracedWindow := window
	if traced {
		untracedWindow = window / 2
	}
	var untraced []solveRecord
	for start := time.Now(); len(untraced) == 0 || time.Since(start) < untracedWindow; {
		r := solve(sp, ds, acc, nil)
		note("measured", r)
		untraced = append(untraced, r)
	}
	walls := make([]float64, len(untraced))
	for i, r := range untraced {
		walls[i] = ms(r.wall)
	}
	if !traced {
		s := summarize(walls)
		fmt.Printf("setup_s samples %v; solve wall ms: n=%d p50=%.1f tail(%s)=%.1f\n", setups, s.N, s.P50, s.TailAt, s.Tail)
		res.metrics["setup_s"] = median(setups)
		res.metrics["peak_rss_mb"] = peakRSSMB()
		res.metrics["ok_ratio"] = float64(res.ok) / float64(res.attempted)
		res.metrics["test_acc"] = untraced[len(untraced)-1].acc
		res.metrics["p50_ms"] = s.P50
		res.metrics["tail_ms"] = s.Tail
		return res, nil
	}

	tracedSolves, tr := tracedTrainWindow(sp, ds, acc, window-window/2, note)
	for _, r := range tracedSolves {
		if r.objective != untraced[0].objective {
			res.mismatch = fmt.Sprintf("traced objective %.17g differs from untraced %.17g", r.objective, untraced[0].objective)
		}
	}
	for k, v := range tr {
		res.metrics[k] = v
	}
	tw := make([]float64, len(tracedSolves))
	for i, r := range tracedSolves {
		tw[i] = ms(r.wall)
	}
	res.metrics["tracing.p50_ms.untraced"] = median(walls)
	res.metrics["tracing.p50_ms.traced"] = median(tw)
	res.metrics["tracing.overhead_pct"] = 100 * (median(tw)/median(walls) - 1)
	return res, nil
}

// tracedTrainWindow solves with the kernel and transport seams wrapped
// and returns the solves and their per-solve module metrics.
func tracedTrainWindow(sp trainSpec, ds *datasets.Dataset, acc *loss.Softmax, window time.Duration, note func(string, solveRecord)) ([]solveRecord, map[string]float64) {
	sum := map[string]float64{}
	var solves []solveRecord
	pkg := "linalg"
	if _, sparse := ds.Xtrain.(loss.Sparse); sparse {
		pkg = "sparse"
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start := time.Now(); len(solves) == 0 || time.Since(start) < window; {
		kc := &kernelCounters{}
		cc := newCommCounters(sp.ranks)
		wrapped := *ds
		wrapped.Xtrain = timedFeatures{inner: ds.Xtrain, c: kc}
		r := solve(sp, &wrapped, acc, cc.wrap)
		note("traced", r)
		solves = append(solves, r)

		var kernelNs int64
		for k := 0; k < numKernels; k++ {
			sum[pkg+"."+kernelNames[k]+".calls"] += float64(kc.calls[k].Load())
			sum[pkg+"."+kernelNames[k]+".ms"] += float64(kc.ns[k].Load()) / 1e6
			kernelNs += kc.ns[k].Load()
		}
		var flops, launches int64
		for _, st := range r.stats {
			flops += st.DevStats.FLOPs
			launches += st.DevStats.Launches
		}
		sum["device.launches"] += float64(launches)
		sum["device.gflop"] += float64(flops) / 1e9
		sum["kernel_s"] += float64(kernelNs) / 1e9
		sum["dist.shard_ms"] += float64(kc.shardNs.Load()) / 1e6

		var sendNs, recvNs, maxRecv int64
		for i := range cc.ranks {
			a := &cc.ranks[i]
			sum["cluster.sends"] += float64(a.sends.Load())
			sum["cluster.mb_sent"] += float64(a.bytes.Load()) / 1e6
			sendNs += a.sendNs.Load()
			recvNs += a.recvNs.Load()
			maxRecv = max(maxRecv, a.recvNs.Load())
		}
		sum["cluster.send_ms"] += float64(sendNs) / 1e6
		sum["cluster.recv_wait_ms"] += float64(recvNs) / 1e6
		sum["cluster.recv_wait_ms.max_rank"] += float64(maxRecv) / 1e6
		if len(r.stats) > 0 {
			sum["cluster.rounds"] += float64(r.stats[0].Rounds)
			sum["cluster.modeled_comm_ms"] += ms(r.stats[0].CommTime)
		}
		busy := kernelNs + sendNs + recvNs + kc.shardNs.Load()
		sum["core.self_ms"] += float64(int64(sp.ranks)*int64(r.wall)-busy) / 1e6
		sum["core.virtual_s"] += r.virtual.Seconds()
		sum["core.epochs"] += float64(r.epochs)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(solves))
	out := map[string]float64{}
	for k, v := range sum {
		out[k] = v / n
	}
	if ks := out["kernel_s"]; ks > 0 {
		out[pkg+".gflops"] = out["device.gflop"] / ks
	}
	delete(out, "kernel_s")
	out["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n
	out["runtime.gc_count"] = float64(m1.NumGC-m0.NumGC) / n
	out["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / n
	return solves, out
}
