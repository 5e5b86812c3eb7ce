package main

import (
	"time"

	"newtonadmm/internal/datasets"
	"newtonadmm/internal/router"
)

// lambda is the public API's default L2 strength (newtonadmm.Options).
const lambda = 1e-5

// trainSpec is a time-to-target training workload: Newton-ADMM with
// default options on a fixed synthetic problem, stopped by core.Solve at
// the first epoch whose allreduced objective reaches target.
type trainSpec struct {
	data  datasets.Config
	ranks int
	tcp   bool
	// target is the stopping objective. refObjective is the objective the
	// solve reaches when it stops (measured on the reference host); a
	// solve passes only if its objective is within relTol of it.
	target, refObjective, relTol float64
	// epochCap bounds the solve; reaching it without the target fails.
	epochCap int
	// accFloor is the lowest acceptable test accuracy at the target.
	accFloor float64
}

// serveSpec is an open-loop serving workload: a router over two
// in-process replicas joined over the binary frame plane.
type serveSpec struct {
	// data generates the served model's training set and the request
	// rows (its test split).
	data        datasets.Config
	modelEpochs int
	mode        router.Mode
	sparse      bool
	// lightRate and heavyRate are the fixed open-loop rates (req/s).
	lightRate, heavyRate float64
	// limit is the per-request latency limit: a slower request counts
	// as failed in ok_ratio.
	limit time.Duration
	// maxRate enables the max-rate search of the traced run.
	maxRate bool
}

type workload struct {
	name  string
	train *trainSpec
	serve *serveSpec
}

// maxRateLimit is the p99 limit of the traced run's max-rate search.
const maxRateLimit = 10 * time.Millisecond

var workloads = []workload{
	{
		// Dense kernels do almost all the work; collective traffic is a
		// few MB per solve. Kernel changes show here, transport changes
		// do not.
		name: "train-dense",
		train: &trainSpec{
			data:  datasets.MNISTLike(1),
			ranks: 2,
			// Epoch 19 reaches 3638.2, epoch 20 reaches 3580.85.
			target:       3600,
			refObjective: 3580.847502,
			relTol:       1e-3,
			epochCap:     30,
			accFloor:     0.58,
		},
	},
	{
		// The 532k-float iterate makes collective traffic ~85 MB per
		// solve over loopback TCP, with frequent garbage collection. CSR
		// kernels, transport copies and allocation show here; dense
		// kernels never run.
		name: "train-sparse-tcp",
		train: &trainSpec{
			data:  datasets.E18Like(1),
			ranks: 2,
			tcp:   true,
			// Epoch 9 reaches 68.76, epoch 10 reaches 60.0038.
			target:       64,
			refObjective: 60.00380043,
			relTol:       1e-3,
			epochCap:     20,
			accFloor:     0.09,
		},
	},
	{
		// The only workload where the replica serve.Batcher runs (queue,
		// linger, execute): whole-model replicas, dense rows.
		name: "serve-replica-tcp",
		serve: &serveSpec{
			data:        datasets.MNISTLike(0.25),
			modelEpochs: 5,
			mode:        router.ModeReplica,
			lightRate:   1000,
			heavyRate:   3000,
			limit:       25 * time.Millisecond,
			maxRate:     true,
		},
	},
	{
		// Class shards: scatter/merge, PartialScores (which bypasses the
		// batcher) and sparse wire records. The control for
		// serve-replica-tcp and the other way round.
		name: "serve-class-tcp",
		serve: &serveSpec{
			data:        datasets.E18Like(0.25),
			modelEpochs: 5,
			mode:        router.ModeClass,
			sparse:      true,
			lightRate:   1000,
			heavyRate:   5000,
			limit:       25 * time.Millisecond,
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
