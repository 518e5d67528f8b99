// Package fed implements the federated adaptation substrate: the client
// fleet abstraction, local training/evaluation helpers, communication and
// simulated-time accounting, and the adaptation strategies compared in the
// paper's evaluation — No Adaptation, Local Adaptation, an AdaptiveNet-style
// multi-branch baseline, FedAvg, HeteroFL, and Nebula's online stage.
package fed

import (
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Client is one edge device: its local data stream and its runtime resource
// monitor.
type Client struct {
	Dev *data.DeviceData
	Mon *device.Monitor
}

// NewClients pairs a data fleet with sampled hardware.
func NewClients(rng *tensor.RNG, fleet []*data.DeviceData) []*Client {
	out := make([]*Client, len(fleet))
	for i, dev := range fleet {
		out[i] = &Client{Dev: dev, Mon: device.NewMonitor(rng, device.SampleClass(rng))}
	}
	return out
}

// Config holds the online-stage hyperparameters (paper Section 6.1).
type Config struct {
	LocalEpochs    int     // local epochs per communication round (3)
	FinetuneEpochs int     // on-device adaptation epochs (10)
	LR             float32 // 0.001 in the paper; higher here (smaller models)
	// CollabLRScale shrinks the local LR of global-model federated training
	// (FedAvg, HeteroFL): averaging stays coherent only when per-round
	// client drift is small. Personalized local training (LA, AN, Nebula
	// sub-models) uses the full LR.
	CollabLRScale   float32
	BatchSize       int // 16
	DevicesPerRound int // 25
	Rounds          int // communication rounds per adaptation step
	TestPerDevice   int // local test samples per device
	// DropoutProb is the probability that a sampled device becomes
	// unreachable during a round (straggler/failure injection); the round
	// proceeds with the survivors.
	DropoutProb float64
	// Workers bounds how many devices run concurrently inside a round
	// (training and evaluation fan-out). 0 means runtime.NumCPU. Results are
	// bitwise identical for every value, including 1 — see docs/PARALLEL.md.
	Workers int

	// Async enables the staleness-aware semi-async round engine
	// (docs/ASYNC.md): rounds tick at a per-round sim-time deadline, updates
	// arriving by the deadline aggregate immediately, stragglers carry their
	// work into the round it lands in (weight decayed by staleness), and
	// devices may join or leave between rounds. Arrival order is a pure
	// function of the seeded sim clock, never wall time, so async runs replay
	// bitwise and are worker-count independent like sync runs.
	Async bool
	// RoundDeadline is the per-round sim-time budget in seconds for async
	// mode. 0 auto-calibrates after the first async round to 2× the median
	// device time observed in that round.
	RoundDeadline float64
	// StalenessDecay ∈ (0,1] multiplies a late update's aggregation weight by
	// decay^staleness, where staleness is the number of rounds between launch
	// and landing. 0 means the default 0.5.
	StalenessDecay float64

	// WireCompress runs Nebula's simulated edge-cloud link through the
	// edgenet wire-format v2 codec (docs/PROTOCOL.md "Wire format v2"):
	// sub-model exchanges are chunk-quantized and delta-encoded against the
	// previous transfer, BytesDown/BytesUp charge the exact encoded wire
	// size, and devices train on the lossy reconstructions — so both the
	// traffic savings and the accuracy cost of compression are real,
	// measured effects. Off by default (exact float32 transfers, analytic
	// 4 B/element accounting).
	WireCompress bool
	// WireTopK in (0,1) keeps only that fraction of uplink delta
	// coordinates (deterministic top-k by |value|). 0 = dense uplink.
	WireTopK float64
	// WireChunk is the codec chunk size in elements (0 = 1024).
	WireChunk int
	// WireF16 selects float16 codes over the default int8.
	WireF16 bool
}

// DefaultConfig mirrors the paper's parameter settings.
func DefaultConfig() Config {
	return Config{
		LocalEpochs:     3,
		FinetuneEpochs:  10,
		LR:              0.01,
		CollabLRScale:   0.3,
		BatchSize:       16,
		DevicesPerRound: 25,
		Rounds:          10,
		TestPerDevice:   60,
	}
}

// Costs accumulates a strategy's resource usage across an adaptation run.
type Costs struct {
	BytesUp   int64
	BytesDown int64
	SimTime   float64 // simulated wall-clock seconds of the adaptation
	Rounds    int
}

// Total returns up+down bytes.
func (c Costs) Total() int64 { return c.BytesUp + c.BytesDown }

// System is the common surface the experiments drive. One adaptation step =
// Adapt on the current fleet state; accuracy is the mean local-task accuracy
// over the probed clients.
type System interface {
	Name() string
	// Pretrain fits the cloud-side model(s) on proxy data.
	Pretrain(rng *tensor.RNG, proxy *data.Dataset)
	// Adapt runs one adaptation step over the fleet (the strategy decides
	// what that means: nothing, local fine-tuning, or federated rounds).
	Adapt(rng *tensor.RNG, clients []*Client)
	// LocalAccuracy evaluates each client's serving model on a fresh sample
	// of its current local task and returns the mean accuracy.
	LocalAccuracy(clients []*Client) float64
	// Costs returns accumulated communication/time accounting.
	Costs() Costs
}

// --- shared helpers -------------------------------------------------------

// TrainLayer runs standard mini-batch CE training on an nn.Layer model.
func TrainLayer(rng *tensor.RNG, m nn.Layer, ds *data.Dataset, epochs int, lr float32, batch int) {
	if ds.Len() == 0 {
		return
	}
	opt := nn.NewSGD(lr, 0.9, 1e-4)
	params := m.Params()
	for e := 0; e < epochs; e++ {
		ds.Batches(rng, batch, func(x *tensor.Tensor, y []int) {
			logits := m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, y)
			m.Backward(grad)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		})
	}
}

// EvalLayer returns a model's accuracy on a dataset.
func EvalLayer(m nn.Layer, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	const chunk = 128
	for start := 0; start < ds.Len(); start += chunk {
		end := start + chunk
		if end > ds.Len() {
			end = ds.Len()
		}
		idx := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idx = append(idx, i)
		}
		x, y := ds.Batch(idx)
		logits := m.Forward(x, false)
		for b := range y {
			if logits.ArgMaxRow(b) == y[b] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}

// trainTime returns the simulated seconds a client spends on local training:
// batches × epochs × per-batch latency under the current resource profile.
func trainTime(p device.Profile, fwdFlopsPerSample int, samples, epochs, batch int) float64 {
	if samples == 0 {
		return 0
	}
	batches := (samples + batch - 1) / batch
	return float64(epochs*batches) * p.TrainBatchLatency(fwdFlopsPerSample, batch)
}

// meanAccuracy is the canonical-mean evaluation every strategy's
// LocalAccuracy runs: eval(state, i) scores device i concurrently (newState
// is forEachDeviceState's per-worker state, nil for none), and the accuracies
// are summed in device index order so the float64 mean is identical for any
// worker count.
func meanAccuracy(workers, n int, newState func() any, eval func(state any, i int) float64) float64 {
	if n == 0 {
		return 0
	}
	accs := make([]float64, n)
	forEachDeviceState(workers, n, newState, func(state any, i int) {
		accs[i] = eval(state, i)
	})
	var sum float64
	for _, a := range accs {
		sum += a
	}
	return sum / float64(n)
}

// meanLocalAccuracyLayer evaluates one shared model on every client's local
// test distribution. Each worker gets its own clone of the model (Forward
// mutates activation caches).
func meanLocalAccuracyLayer(m nn.Layer, clients []*Client, testN, workers int) float64 {
	return meanAccuracy(workers, len(clients),
		func() any { return nn.CloneLayer(m) },
		func(state any, i int) float64 {
			return EvalLayer(state.(nn.Layer), clients[i].Dev.TestSet(testN))
		})
}

// sampleClients picks k distinct clients. The result is always a fresh slice,
// never an alias of clients: callers reorder and truncate their sample (e.g.
// dropping unreachable devices), and an aliased return would let that
// mutation reorder the shared fleet and silently perturb canonical device
// order for every later round.
func sampleClients(rng *tensor.RNG, clients []*Client, k int) []*Client {
	if k >= len(clients) {
		return append([]*Client(nil), clients...)
	}
	idx := rng.Sample(len(clients), k)
	out := make([]*Client, k)
	for i, j := range idx {
		out[i] = clients[j]
	}
	return out
}

// modelBytes is the wire size of a model's parameters and states.
func modelBytes(m nn.Layer) int64 {
	return nn.BytesOf(m.Params(), nn.LayerStates(m))
}
