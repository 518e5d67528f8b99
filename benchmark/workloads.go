package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/edgenet"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
)

// workers is the device fan-out of the simulated rounds and the number of
// rpc-loopback clients. Two matches the 2-vCPU machines the benchmark was
// sized on; results of the simulated rounds are bitwise identical for every
// worker count (docs/PARALLEL.md), so only timings depend on it.
const workers = 2

// sizing fixes the work of one episode. fullSize is what the benchmark
// measures; tests use tinySize.
type sizing struct {
	proxyPerClass  int // offline proxy samples per class (cnn-sync, mlp-dynamic)
	devices        int // cnn-sync fleet
	perRound       int // cnn-sync devices per round
	rounds         int // cnn-sync rounds per episode
	localEpochs    int // local epochs per round (cnn-sync, mlp-dynamic)
	cnnEpochs      int // cnn-sync offline epochs (0 = Nebula's default)
	pretrainEpochs int // mlp-dynamic and rpc-loopback offline epochs
	harPool        int // mlp-dynamic initial fleet
	steps          int // mlp-dynamic fleet steps, one round each, per episode
	rpcProxy       int // rpc-loopback offline proxy samples per class
	rpcRounds      int // rpc-loopback device rounds per client per episode
	rpcDrift       int // rpc-loopback: data drifts every rpcDrift device rounds
	// accounted is how many episodes every run makes, however short
	// --seconds is. final_acc, bytes_per_round and the digest come from
	// these episodes only, so they are a function of the seed alone.
	// mlp-dynamic's episodes are cheap and its fleets vary more, so it
	// accounts more of them.
	accounted, harAccounted int
}

func (sz sizing) accountedFor(workload string) int {
	if workload == "mlp-dynamic" {
		return sz.harAccounted
	}
	return sz.accounted
}

// fullSize is the Table 1 quick shape (experiments.Default) for cnn-sync,
// the straggler experiment's fleet for mlp-dynamic, and for rpc-loopback a
// short offline stage plus 1,800 device rounds per client per episode.
func fullSize() sizing {
	d := experiments.Default()
	return sizing{
		proxyPerClass:  d.ProxyPerClass,
		devices:        d.Devices,
		perRound:       d.DevicesPerRound,
		rounds:         d.Rounds,
		localEpochs:    d.LocalEpochs,
		pretrainEpochs: d.PretrainEpochs,
		harPool:        max(d.Devices/2, 8),
		steps:          40,
		rpcProxy:       8,
		rpcRounds:      1800,
		rpcDrift:       8,
		accounted:      5,
		harAccounted:   10,
	}
}

// tinySize runs every code path of every workload in well under a second.
func tinySize() sizing {
	return sizing{
		proxyPerClass: 4, devices: 6, perRound: 3, rounds: 2, localEpochs: 1,
		cnnEpochs: 1, pretrainEpochs: 1, harPool: 6, steps: 3,
		rpcProxy: 2, rpcRounds: 12, rpcDrift: 4, accounted: 2, harAccounted: 2,
	}
}

// opLog collects one episode's online-phase observations.
type opLog struct {
	roundMs  []float64 // one online operation: a Round, or a device round on rpc-loopback
	fetchMs  []float64 // rpc-loopback FetchSubModel
	pushMs   []float64 // rpc-loopback PushUpdate
	stepMs   []float64 // mlp-dynamic fleet.Step
	bytes    float64   // bytes moved by the online phase
	ops      int       // online operations attempted
	failures []string  // failed operations and checks
	checks   int       // correctness checks made
}

func (l *opLog) merge(o *opLog) {
	l.roundMs = append(l.roundMs, o.roundMs...)
	l.fetchMs = append(l.fetchMs, o.fetchMs...)
	l.pushMs = append(l.pushMs, o.pushMs...)
	l.stepMs = append(l.stepMs, o.stepMs...)
	l.bytes += o.bytes
	l.ops += o.ops
	l.checks += o.checks
	l.failures = append(l.failures, o.failures...)
}

func (l *opLog) check(ok bool, format string, args ...any) {
	l.checks++
	if !ok {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

func ms(sw obs.Stopwatch) float64 { return sw.Seconds() * 1e3 }

// outcome is what one episode produced. A deterministic workload produces
// the same outcome, and moves the same bytes, from the same seed and
// episode in every run (docs/PARALLEL.md); digest, the cloud model's
// parameter hash, is empty for workloads that are not deterministic.
type outcome struct {
	acc    float64
	digest string
}

// workload is one of the benchmark's workloads. offline runs once per
// checkpoint; every episode then runs on a fresh value: setup → online →
// evaluate → close.
type workload interface {
	// offline generates the proxy set and trains the cloud model on it. It
	// returns the wall time in seconds of the training call alone and a
	// checkpoint of the trained model.
	offline(sz sizing, t *tracer) (float64, []byte, error)
	// setup builds one episode's inputs: the fleet or the devices drawn
	// from the episode seed, the cloud model restored from ckpt, and for
	// rpc-loopback the listening server and connected clients.
	setup(seed int64, sz sizing, ckpt []byte, t *tracer) error
	online(t *tracer, log *opLog)
	evaluate() outcome
	// deterministic reports whether episodes replay bit for bit.
	deterministic() bool
	close()
}

var workloadNames = []string{"cnn-sync", "mlp-dynamic", "rpc-loopback"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cnn-sync":
		return &cnnSync{}, nil
	case "mlp-dynamic":
		return &mlpDynamic{}, nil
	case "rpc-loopback":
		return &rpcLoopback{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// accFloor is the final_acc each workload must reach. The floors sit well
// below what every seed tried reached, so they catch a broken adaptation,
// codec or transport rather than seed-to-seed variation.
var accFloor = map[string]float64{
	"cnn-sync":     0.6,
	"mlp-dynamic":  0.6,
	"rpc-loopback": 0.9,
}

// The tasks and the offline stage are fixed, as a dataset and a trained
// cloud model are: they are the quick-profile experiments' tasks, proxy
// sets and pretraining streams at the experiments' default seed. How much
// work training does depends on how the model's routing turns out, and the
// trained selector decides which modules every device receives, so a
// per-seed cloud model would make offline_s and every online timing differ
// from seed to seed more than from commit to commit. The benchmark seed
// draws everything the online phase sees: fleet partition, hardware, churn,
// sampling and local training streams.
func image10Task() *fed.Task { return fed.Image10Task(1+11, fed.ScaleQuick) }
func harTask() *fed.Task     { return fed.HARTask(1+30, fed.ScaleQuick) }

// saveModel checkpoints a trained cloud model.
func saveModel(m *modular.Model) ([]byte, error) {
	var buf bytes.Buffer
	if err := modular.SaveCheckpoint(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loadModel builds the task's model and restores a checkpoint into it.
func loadModel(task *fed.Task, ckpt []byte) (*modular.Model, error) {
	m := task.BuildModular(tensor.NewRNG(1))
	if err := modular.LoadCheckpoint(bytes.NewReader(ckpt), m); err != nil {
		return nil, err
	}
	return m, nil
}

// paramDigest hashes every parameter of the cloud model bit for bit.
func paramDigest(m *modular.Model) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// roundSpan opens the benchmark's span around one Round call. It shares the
// trace the program keys on the round number, so the program's fed.round
// root and the benchmark's bench.round sit in one trace.
func roundSpan(t *tracer, round int, kind string) span.Active {
	rec := t.recorder()
	tid, _ := rec.Trace(int64(round))
	s := rec.Start(tid, 0, kind)
	s.SetRound(round)
	return s
}

// phaseSpan opens a root span for a call outside the rounds (Pretrain,
// LocalAccuracy), in a trace keyed below every round number.
func phaseSpan(t *tracer, key int64, kind string) span.Active {
	rec := t.recorder()
	tid, _ := rec.Trace(-key)
	return rec.Start(tid, 0, kind)
}

// pretrain runs Nebula's offline stage on a proxy set.
func pretrain(task *fed.Task, cfg fed.Config, epochs int, proxy *data.Dataset, rng *tensor.RNG, t *tracer) (float64, []byte, error) {
	nb := fed.NewNebula(task, cfg)
	if epochs > 0 {
		nb.TrainCfg.Epochs = epochs
	}
	s := phaseSpan(t, 1, "bench.pretrain")
	sw := obs.StartTimer()
	nb.Pretrain(rng, proxy)
	d := sw.Seconds()
	s.End()
	ckpt, err := saveModel(nb.Model)
	return d, ckpt, err
}

// --- cnn-sync --------------------------------------------------------------

// cnnSync is the Nebula column of Table 1's image10-resnet m=2 row: bulk-sync
// rounds over a 24-device label-skewed fleet, exact transfers, clean link.
type cnnSync struct {
	seed    int64
	sz      sizing
	t       *tracer
	nb      *fed.Nebula
	clients []*fed.Client
}

func (w *cnnSync) config(sz sizing) fed.Config {
	cfg := fed.DefaultConfig()
	cfg.Rounds = sz.rounds
	cfg.DevicesPerRound = sz.perRound
	cfg.LocalEpochs = sz.localEpochs
	cfg.Workers = workers
	return cfg
}

func (w *cnnSync) offline(sz sizing, t *tracer) (float64, []byte, error) {
	task := image10Task()
	proxy := data.MakeBalancedDataset(tensor.NewRNG(1+5), task.Gen, data.DefaultEnv(), sz.proxyPerClass)
	return pretrain(task, w.config(sz), sz.cnnEpochs, proxy, tensor.NewRNG(1+77), t)
}

func (w *cnnSync) setup(seed int64, sz sizing, ckpt []byte, t *tracer) error {
	w.seed, w.sz, w.t = seed, sz, t
	task := image10Task()
	fleet := data.NewFleet(tensor.NewRNG(seed+6), task.Gen, data.PartitionConfig{
		NumDevices: sz.devices, ClassesPerDevice: 2, MinVolume: 30, MaxVolume: 90,
	})
	w.clients = fed.NewClients(tensor.NewRNG(seed+88), fleet)
	w.nb = fed.NewNebula(task, w.config(sz))
	m, err := loadModel(task, ckpt)
	if err != nil {
		return err
	}
	w.nb.Model = m
	w.nb.Spans = t.recorder()
	return nil
}

func (w *cnnSync) online(t *tracer, log *opLog) {
	rng := tensor.NewRNG(w.seed + 99)
	for r := 1; r <= w.sz.rounds; r++ {
		s := roundSpan(t, r, "bench.round")
		sw := obs.StartTimer()
		w.nb.Round(rng, w.clients)
		log.roundMs = append(log.roundMs, ms(sw))
		s.End()
		log.ops++
	}
	log.bytes = float64(w.nb.Costs().Total()) // before LocalAccuracy, which charges bootstrap downloads
}

func (w *cnnSync) evaluate() outcome {
	s := phaseSpan(w.t, 2, "bench.local_accuracy")
	acc := w.nb.LocalAccuracy(w.clients)
	s.End()
	return outcome{acc: acc, digest: paramDigest(w.nb.Model)}
}

func (w *cnnSync) deterministic() bool { return true }
func (w *cnnSync) close()              {}

// --- mlp-dynamic -----------------------------------------------------------

// mlpDynamic is the straggler experiment's environment with the compress
// experiment's wire: har-mlp over a churning, drifting fleet with two pinned
// stragglers, semi-async rounds with an auto-calibrated deadline, and v2
// wire transfers with top-k 0.25 uplinks. One Round per fleet.Step.
type mlpDynamic struct {
	seed  int64
	sz    sizing
	t     *tracer
	nb    *fed.Nebula
	fleet *experiments.DynamicFleet
}

func (w *mlpDynamic) config(sz sizing) fed.Config {
	cfg := fed.DefaultConfig()
	cfg.Rounds = 1
	cfg.DevicesPerRound = experiments.Default().Devices
	cfg.LocalEpochs = sz.localEpochs
	cfg.Workers = workers
	cfg.Async = true
	cfg.WireCompress = true
	cfg.WireTopK = 0.25
	return cfg
}

func (w *mlpDynamic) offline(sz sizing, t *tracer) (float64, []byte, error) {
	task := harTask()
	proxy := data.MakeBalancedDataset(tensor.NewRNG(1+40), task.Gen, data.DefaultEnv(), sz.proxyPerClass)
	return pretrain(task, w.config(sz), sz.pretrainEpochs, proxy, tensor.NewRNG(1+60), t)
}

func (w *mlpDynamic) setup(seed int64, sz sizing, ckpt []byte, t *tracer) error {
	w.seed, w.sz, w.t = seed, sz, t
	task := harTask()
	w.fleet = experiments.NewDynamicFleet(tensor.NewRNG(seed+50), task, sz.harPool, experiments.Default().ShiftFrac, experiments.DefaultChurn())
	w.nb = fed.NewNebula(task, w.config(sz))
	m, err := loadModel(task, ckpt)
	if err != nil {
		return err
	}
	w.nb.Model = m
	w.nb.Spans = t.recorder()
	return nil
}

func (w *mlpDynamic) online(t *tracer, log *opLog) {
	for step := 1; step <= w.sz.steps; step++ {
		ss := roundSpan(t, step, "bench.fleet_step")
		sw := obs.StartTimer()
		w.fleet.Step()
		log.stepMs = append(log.stepMs, ms(sw))
		ss.End()
		clients := w.fleet.Active()
		s := roundSpan(t, step, "bench.round")
		sw = obs.StartTimer()
		w.nb.Round(tensor.NewRNG(w.seed+int64(step)), clients)
		log.roundMs = append(log.roundMs, ms(sw))
		s.End()
		log.ops++
	}
	log.bytes = float64(w.nb.Costs().Total()) // before LocalAccuracy, which charges bootstrap downloads
}

func (w *mlpDynamic) evaluate() outcome {
	s := phaseSpan(w.t, 2, "bench.local_accuracy")
	acc := w.nb.LocalAccuracy(w.fleet.Active())
	s.End()
	return outcome{acc: acc, digest: paramDigest(w.nb.Model)}
}

func (w *mlpDynamic) deterministic() bool { return true }
func (w *mlpDynamic) close()              {}

// --- rpc-loopback ----------------------------------------------------------

// rpcLoopback drives the real transport: an edgenet server on 127.0.0.1 with
// AggregateEvery 4, and two clients on two TCP connections, each in a closed
// loop of FetchSubModel → seeded perturbation (in place of training) →
// dense v2 PushUpdate. Every rpcDrift device rounds a client's data drifts
// and its importance is recomputed, so the server serves both delta and
// full payloads. The offline stage trains the served model on a small proxy
// set, as nebula-cloud does before it serves.
type rpcLoopback struct {
	seed    int64
	sz      sizing
	t       *tracer
	task    *fed.Task
	srv     *edgenet.Server
	devices []*rpcDevice
}

// rpcClasses are the two clients' hardware, the first two devices of the
// testbed example. Their budgets come from the nominal class, without
// drawn contention: with only two devices an episode, a drawn budget would
// set the payload size of half the traffic and swamp the transport's own
// timing with seed-to-seed size differences. Importance, which drifts with
// the data, still changes the mapping, so full and delta payloads both flow.
var rpcClasses = []device.Class{device.JetsonNano(), device.RaspberryPi()}

// rpcDevice is one edge client and its local state.
type rpcDevice struct {
	id       int
	cl       *edgenet.EdgeClient
	skeleton *modular.Model
	dev      *data.DeviceData
	budget   modular.Budget
	rng      *tensor.RNG
	imp      [][]float64 // importance of the current local data
	log      opLog
}

func (w *rpcLoopback) offline(sz sizing, t *tracer) (float64, []byte, error) {
	task := image10Task()
	proxy := data.MakeBalancedDataset(tensor.NewRNG(1+5), task.Gen, data.DefaultEnv(), sz.rpcProxy)
	return pretrain(task, fed.DefaultConfig(), sz.pretrainEpochs, proxy, tensor.NewRNG(1+77), t)
}

func (w *rpcLoopback) setup(seed int64, sz sizing, ckpt []byte, t *tracer) error {
	w.seed, w.sz, w.t = seed, sz, t
	w.task = image10Task()
	m, err := loadModel(w.task, ckpt)
	if err != nil {
		return err
	}
	w.srv = edgenet.NewServer(m, 4)
	w.srv.Spans = t.recorder()
	t.addRegistry(w.srv.Registry())
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	for id := 0; id < workers; id++ {
		// Every edge builds the same skeleton; Hello downloads the selector
		// and each fetch the parameters.
		sk := w.task.BuildModular(tensor.NewRNG(1))
		cl, err := edgenet.Dial(addr, id, sk)
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		cl.Spans = t.recorder()
		rng := tensor.NewRNG(seed*1000 + 7 + int64(id))
		start := rng.Intn(w.task.Classes)
		classes := []int{start, (start + 1) % w.task.Classes}
		d := &rpcDevice{
			id: id, cl: cl, skeleton: sk, rng: rng,
			dev:    data.NewDeviceData(rng, w.task.Gen, id, classes, data.RandomEnv(rng), 60),
			budget: budgetFor(sk, rpcClasses[id].ComputeFLOPS),
		}
		w.devices = append(w.devices, d)
	}
	return nil
}

func (w *rpcLoopback) deterministic() bool { return false }

func (w *rpcLoopback) online(t *tracer, log *opLog) {
	var wg sync.WaitGroup
	for _, d := range w.devices {
		wg.Add(1)
		go func(d *rpcDevice) {
			defer wg.Done()
			d.loop(t, w.sz)
		}(d)
	}
	wg.Wait()
	var fetches, pushes int
	for _, d := range w.devices {
		log.merge(&d.log)
		fetches += len(d.log.fetchMs)
		pushes += len(d.log.pushMs)
		in, out := d.cl.Traffic()
		log.bytes += float64(in + out)
	}
	st := w.srv.StatsSnapshot()
	log.check(st.SubModelsServed == int64(fetches), "server served %d sub-models, clients fetched %d", st.SubModelsServed, fetches)
	log.check(st.UpdatesReceived == int64(pushes), "server received %d updates, clients pushed %d", st.UpdatesReceived, pushes)
	log.check(st.Retries == 0 && st.Timeouts == 0 && st.Resets == 0, "server saw %d retries, %d timeouts, %d resets on loopback", st.Retries, st.Timeouts, st.Resets)
	for _, d := range w.devices {
		rs := d.cl.RetryStats()
		log.check(rs.Retries == 0 && rs.Timeouts == 0, "client %d: %d retries, %d timeouts on loopback", d.id, rs.Retries, rs.Timeouts)
	}
}

// loop is one client's closed loop of device rounds.
func (d *rpcDevice) loop(t *tracer, sz sizing) {
	rec := t.recorder()
	fail := func(format string, args ...any) {
		d.log.failures = append(d.log.failures, fmt.Sprintf("client %d: ", d.id)+fmt.Sprintf(format, args...))
	}
	d.log.ops++
	if err := d.cl.Hello(); err != nil {
		fail("hello: %v", err)
		return
	}
	for it := 0; it < sz.rpcRounds; it++ {
		tid, _ := rec.Trace(int64(d.id)<<32 | int64(it))
		root := rec.Start(tid, 0, "bench.round")
		root.SetDevice(d.id)
		round := obs.StartTimer()
		if it%sz.rpcDrift == 0 {
			if it > 0 {
				d.dev.Shift(0.5)
			}
			is := rec.Start(tid, root.ID(), "bench.importance")
			n := min(d.dev.Train.Len(), 48)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			x, _ := d.dev.Train.Batch(idx)
			d.imp = d.skeleton.Importance(x)
			is.End()
		}
		d.log.ops++

		fs := rec.Start(tid, root.ID(), "bench.fetch")
		d.cl.SetTraceContext(tid, fs.ID())
		sw := obs.StartTimer()
		sub, err := d.cl.FetchSubModel(d.imp, d.budget)
		d.log.fetchMs = append(d.log.fetchMs, ms(sw))
		fs.SetErr(err)
		fs.End()
		if err != nil {
			fail("fetch %d: %v", it, err)
			root.End()
			continue
		}
		if want := d.skeleton.Derive(d.imp, d.budget, false); !edgenet.MappingEqual(sub.Mapping, want) {
			fail("fetch %d: mapping %v, want %v", it, sub.Mapping, want)
		}

		// A seeded perturbation stands in for local training, so the
		// loop measures the transport and not the kernels.
		for _, p := range sub.Params() {
			for i := range p.W.Data {
				p.W.Data[i] += float32(d.rng.NormFloat64() * 1e-3)
			}
		}

		ps := rec.Start(tid, root.ID(), "bench.push")
		d.cl.SetTraceContext(tid, ps.ID())
		sw = obs.StartTimer()
		err = d.cl.PushUpdate(sub, d.imp, float64(d.dev.Train.Len()))
		d.log.pushMs = append(d.log.pushMs, ms(sw))
		ps.SetErr(err)
		ps.End()
		d.log.roundMs = append(d.log.roundMs, ms(round))
		root.End()
		if err != nil {
			fail("push %d: %v", it, err)
		}
	}
	d.cl.SetTraceContext(0, 0)
}

// budgetFor grants stem+head plus a capability-scaled fraction of the
// module pool, as the nebula-edge device does.
func budgetFor(m *modular.Model, flops float64) modular.Budget {
	stem, head, mods := m.ModuleCosts()
	var b modular.Budget
	for _, layer := range mods {
		for _, mc := range layer {
			b.CommBytes += float64(mc.Bytes)
			b.FwdFLOPs += float64(mc.FwdFLOPs)
			b.MemElems += float64(mc.TrainMemEl)
		}
	}
	frac := min(max(0.3*flops/device.JetsonNano().ComputeFLOPS, 0.15), 0.7)
	b.CommBytes = float64(stem.Bytes+head.Bytes) + frac*b.CommBytes
	b.FwdFLOPs = float64(stem.FwdFLOPs+head.FwdFLOPs) + frac*b.FwdFLOPs
	b.MemElems = float64(stem.TrainMemEl+head.TrainMemEl) + frac*b.MemElems
	return b
}

// evaluate fetches each client's sub-model once more and scores it
// against the cloud's own float32 copy of the same modules: final_acc on
// rpc-loopback is the share of local test inputs on which the model a device
// received over the wire answers as the cloud's model does. A lossy or
// desynchronised codec, or a wrong mapping, shows up as disagreement.
func (w *rpcLoopback) evaluate() outcome {
	s := phaseSpan(w.t, 2, "bench.local_accuracy")
	defer s.End()
	const n = 200
	agree := 0
	for _, d := range w.devices {
		sub, err := d.cl.FetchSubModel(d.imp, d.budget)
		if err != nil {
			continue
		}
		exact := w.srv.Model.Extract(sub.Mapping)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		x, _ := d.dev.TestSet(n).Batch(idx)
		got, want := sub.Forward(x, false), exact.Forward(x, false)
		for r := 0; r < n; r++ {
			if got.ArgMaxRow(r) == want.ArgMaxRow(r) {
				agree++
			}
		}
	}
	return outcome{acc: float64(agree) / float64(n*len(w.devices))}
}

func (w *rpcLoopback) close() {
	for _, d := range w.devices {
		d.cl.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}
