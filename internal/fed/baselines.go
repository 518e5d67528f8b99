package fed

import (
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// PretrainEpochs is the number of proxy-data epochs used by every strategy's
// offline stage.
var PretrainEpochs = 5

// --- No Adaptation --------------------------------------------------------

// NoAdapt serves the pre-trained cloud model unchanged: the paper's NA
// baseline and the "static cloud model" line of Figure 1(a).
type NoAdapt struct {
	Task  *Task
	model nn.Layer
	cfg   Config
	costs Costs
}

// NewNoAdapt builds the NA strategy.
func NewNoAdapt(task *Task, cfg Config) *NoAdapt {
	return &NoAdapt{Task: task, cfg: cfg}
}

func (s *NoAdapt) Name() string { return "NA" }

// Pretrain fits the full cloud model on proxy data.
func (s *NoAdapt) Pretrain(rng *tensor.RNG, proxy *data.Dataset) {
	s.model = s.Task.BuildFull(rng, 1.0)
	TrainLayer(rng, s.model, proxy, PretrainEpochs, s.cfg.LR, s.cfg.BatchSize)
}

// Adapt does nothing: the model is static.
func (s *NoAdapt) Adapt(rng *tensor.RNG, clients []*Client) {}

// LocalAccuracy evaluates the static model on every client's local task.
func (s *NoAdapt) LocalAccuracy(clients []*Client) float64 {
	return meanLocalAccuracyLayer(s.model, clients, s.cfg.TestPerDevice, s.cfg.Workers)
}

// Costs returns zero: nothing is communicated after deployment.
func (s *NoAdapt) Costs() Costs { return s.costs }

// Model exposes the underlying cloud model.
func (s *NoAdapt) Model() nn.Layer { return s.model }

// --- Local Adaptation -----------------------------------------------------

// LocalAdapt fine-tunes a per-device copy of the cloud model on local data
// with no collaboration: the paper's LA baseline and the "updated edge model
// (individual device)" line of Figure 1(a).
type LocalAdapt struct {
	Task  *Task
	cloud nn.Layer
	local map[int]nn.Layer
	cfg   Config
	costs Costs
}

// NewLocalAdapt builds the LA strategy.
func NewLocalAdapt(task *Task, cfg Config) *LocalAdapt {
	return &LocalAdapt{Task: task, cfg: cfg, local: map[int]nn.Layer{}}
}

func (s *LocalAdapt) Name() string { return "LA" }

// Pretrain fits the shared cloud model that devices start from.
func (s *LocalAdapt) Pretrain(rng *tensor.RNG, proxy *data.Dataset) {
	s.cloud = s.Task.BuildFull(rng, 1.0)
	TrainLayer(rng, s.cloud, proxy, PretrainEpochs, s.cfg.LR, s.cfg.BatchSize)
}

// Adapt fine-tunes every client's private copy on its current local data.
// Devices run concurrently on derived streams; map writes and cost charges
// commit in canonical device order.
func (s *LocalAdapt) Adapt(rng *tensor.RNG, clients []*Client) {
	n := len(clients)
	held := make([]nn.Layer, n)
	for i, c := range clients {
		held[i] = s.local[c.Dev.ID]
	}
	streams := splitStreams(rng, n)
	type result struct {
		m    nn.Layer
		down int64
		t    float64
	}
	res := make([]result, n)
	forEachDevice(s.cfg.Workers, n, func(i int) {
		c := clients[i]
		m := held[i]
		if m == nil {
			m = nn.CloneLayer(s.cloud)
			res[i].down = modelBytes(m) // one-time model download
		}
		TrainLayer(streams[i], m, c.Dev.Train, s.cfg.FinetuneEpochs, s.cfg.LR, s.cfg.BatchSize)
		p := c.Mon.Profile()
		fwd, _ := nn.ForwardCost(m, s.Task.InElems())
		res[i].m = m
		res[i].t = trainTime(p, fwd, c.Dev.Train.Len(), s.cfg.FinetuneEpochs, s.cfg.BatchSize)
	})
	var slot float64
	for i, c := range clients {
		r := &res[i]
		if held[i] == nil {
			s.local[c.Dev.ID] = r.m
			s.costs.BytesDown += r.down
		}
		if r.t > slot {
			slot = r.t
		}
	}
	s.costs.SimTime += slot // devices adapt in parallel
	s.costs.Rounds++
}

// LocalAccuracy evaluates each device's private model on its local task.
// Devices without a private copy evaluate a clone of the shared cloud model
// (Forward mutates activation caches, so workers must not share it).
func (s *LocalAdapt) LocalAccuracy(clients []*Client) float64 {
	models := make([]nn.Layer, len(clients))
	for i, c := range clients {
		models[i] = s.local[c.Dev.ID]
	}
	return meanAccuracy(s.cfg.Workers, len(clients), nil, func(_ any, i int) float64 {
		m := models[i]
		if m == nil {
			m = nn.CloneLayer(s.cloud)
		}
		return EvalLayer(m, clients[i].Dev.TestSet(s.cfg.TestPerDevice))
	})
}

// Costs returns accumulated accounting.
func (s *LocalAdapt) Costs() Costs { return s.costs }

// --- AdaptiveNet-style ----------------------------------------------------

// AdaptiveNet is the AN baseline: the cloud pre-trains a multi-branch model;
// each device picks the deepest branch fitting its latency budget and
// fine-tunes that branch locally. Resource-aware, but new knowledge never
// returns to the cloud.
type AdaptiveNet struct {
	Task          *Task
	cloud         *MultiBranch
	local         map[int]*MultiBranch
	branch        map[int]int
	latencyBudget float64
	cfg           Config
	costs         Costs
}

// NewAdaptiveNet builds the AN strategy.
func NewAdaptiveNet(task *Task, cfg Config) *AdaptiveNet {
	return &AdaptiveNet{Task: task, cfg: cfg, local: map[int]*MultiBranch{}, branch: map[int]int{}}
}

func (s *AdaptiveNet) Name() string { return "AN" }

// Pretrain trains all branches with deep supervision and fixes the latency
// budget: 1.5× the deepest branch's latency on an uncontended mid-tier SoC,
// so weaker or contended devices fall back to shallower branches.
func (s *AdaptiveNet) Pretrain(rng *tensor.RNG, proxy *data.Dataset) {
	s.cloud = s.Task.BuildBranchy(rng)
	s.cloud.TrainAllExits(rng, proxy, PretrainEpochs, s.cfg.LR, s.cfg.BatchSize)
	mid := device.ClassByName("mid-soc")
	deepest := s.cloud.BranchCost(s.Task.InElems(), s.cloud.NumBranches()-1)
	s.latencyBudget = 1.5 * float64(deepest) / mid.ComputeFLOPS
}

// Adapt (re-)selects each client's branch under its current resources and
// fine-tunes it locally. Devices run concurrently on derived streams; map
// writes and cost charges commit in canonical device order.
func (s *AdaptiveNet) Adapt(rng *tensor.RNG, clients []*Client) {
	n := len(clients)
	held := make([]*MultiBranch, n)
	for i, c := range clients {
		held[i] = s.local[c.Dev.ID]
	}
	streams := splitStreams(rng, n)
	type result struct {
		m    *MultiBranch
		b    int
		down int64
		t    float64
	}
	res := make([]result, n)
	forEachDevice(s.cfg.Workers, n, func(i int) {
		c := clients[i]
		p := c.Mon.Profile()
		b := s.cloud.PickBranch(p, s.Task.InElems(), s.latencyBudget)
		m := held[i]
		if m == nil {
			m = s.cloud.Clone()
			res[i].down = s.cloud.BranchBytes(s.cloud.NumBranches() - 1)
		}
		TrainLayer(streams[i], branchModel{m, b}, c.Dev.Train, s.cfg.FinetuneEpochs, s.cfg.LR, s.cfg.BatchSize)
		res[i].m, res[i].b = m, b
		res[i].t = trainTime(p, m.BranchCost(s.Task.InElems(), b), c.Dev.Train.Len(), s.cfg.FinetuneEpochs, s.cfg.BatchSize)
	})
	var slot float64
	for i, c := range clients {
		r := &res[i]
		if held[i] == nil {
			s.local[c.Dev.ID] = r.m
			s.costs.BytesDown += r.down
		}
		s.branch[c.Dev.ID] = r.b
		if r.t > slot {
			slot = r.t
		}
	}
	s.costs.SimTime += slot
	s.costs.Rounds++
}

// LocalAccuracy evaluates each device's chosen branch on its local task.
// Devices without a private copy evaluate a clone of the shared cloud model
// (Forward mutates activation caches, so workers must not share it).
func (s *AdaptiveNet) LocalAccuracy(clients []*Client) float64 {
	type pick struct {
		m *MultiBranch
		b int
	}
	picks := make([]pick, len(clients))
	for i, c := range clients {
		m := s.local[c.Dev.ID]
		b, ok := s.branch[c.Dev.ID]
		if m == nil || !ok {
			b = s.cloud.NumBranches() - 1
			m = nil // worker clones the shared cloud model
		}
		picks[i] = pick{m, b}
	}
	return meanAccuracy(s.cfg.Workers, len(clients), nil, func(_ any, i int) float64 {
		m := picks[i].m
		if m == nil {
			m = s.cloud.Clone()
		}
		return EvalLayer(branchModel{m, picks[i].b}, clients[i].Dev.TestSet(s.cfg.TestPerDevice))
	})
}

// Costs returns accumulated accounting.
func (s *AdaptiveNet) Costs() Costs { return s.costs }
