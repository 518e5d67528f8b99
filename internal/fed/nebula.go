package fed

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Nebula is the paper's system: a modularized cloud model trained offline
// (end-to-end + module ability-enhancing), and an online stage that derives
// personalized sub-models under per-device resource budgets, trains them on
// fresh local data, and aggregates them module-wise.
type Nebula struct {
	Task  *Task
	Model *modular.Model
	cfg   Config
	costs Costs

	// TrainCfg controls the offline stage.
	TrainCfg modular.TrainConfig
	// AbilityEnhancing toggles the Section 4.3 fine-tuning stage (ablation).
	AbilityEnhancing bool
	// LocalTraining=false gives the "Nebula w/o local training" variant:
	// devices fetch fresh sub-models but never update them (and upload
	// nothing).
	LocalTraining bool
	// CloudCollaboration=false gives the "Nebula w/o cloud" variant: one
	// initial derivation, then purely local updates.
	CloudCollaboration bool

	// Budget shaping. A device's Eq. 2 budget is the always-present
	// stem+head cost plus a capability-dependent fraction of the total
	// module pool cost: frac = clamp((effectiveFLOPS/flagshipFLOPS)^CapExp,
	// MinFraction, MaxFraction). Runtime contention lowers effective FLOPS
	// and therefore shrinks the derived sub-model — the paper's
	// accuracy-latency tradeoff under inner runtime dynamics.
	MinFraction float64
	MaxFraction float64
	CapExp      float64
	// MaxModules optionally caps sub-model module counts (0 = uncapped).
	MaxModules int
	// ExactDerive switches the Eq. 2 solver to branch-and-bound.
	ExactDerive bool
	// PullBlend controls how strongly a refresh pulls the cloud's current
	// module parameters into a device's persistent sub-model (0 = keep local
	// weights, 1 = overwrite with cloud). Devices keep serving and training
	// their personalized sub-model across rounds; the pull imports the
	// knowledge other devices contributed to the shared modules.
	PullBlend float32
	// RederiveOverlap re-derives the sub-model structure when the Jaccard
	// overlap between the held modules and the freshly preferred selection
	// drops below it — i.e. when the local task changed enough that
	// different modules matter.
	RederiveOverlap float64

	// Trace optionally receives structured per-round events (nil = off).
	Trace *trace.Logger

	// Spans optionally records wall-clock causal spans (docs/OBSERVABILITY.md
	// "Tracing"): each sampled round is a root span with per-device children.
	// Whether a round is sampled is a deterministic keyed hash of the round
	// number — never an RNG draw — and spans are write-only, so artifacts
	// stay byte-identical with tracing on or off. Nil = tracing off.
	Spans *span.Recorder

	// Metrics optionally binds this strategy to a private obs registry
	// (tests, replay tooling). Nil uses the package default on
	// obs.Default(). Metrics are write-only telemetry: nothing in the round
	// logic reads them back, so they cannot perturb artifacts.
	Metrics *RoundMetrics

	// Faults optionally replays a lossy edge-cloud link (nil = clean
	// network). A device whose fetch is lost after retries degrades to its
	// cached sub-model (or sits the round out if it has none); a device
	// whose push is lost trains in vain but never stalls aggregation.
	Faults *FaultModel

	subs       map[int]*modular.SubModel
	hasGatePkg map[int]bool // devices that already hold the selector
	// wireRefs holds the per-device delta-coding reference for the simulated
	// v2 link (cfg.WireCompress; internal/fed/wire.go): the reconstruction of
	// the device's last downlink, shared by both ends of the in-process
	// "wire". Snapshotted in prepRound, written back in commitDevice.
	wireRefs map[int]*edgenet.WireRef

	// async holds the semi-async coordinator state (cfg.Async; docs/ASYNC.md),
	// lazily created on the first deadline-paced round and persisted across
	// Adapt calls so carried stragglers and the sim clock survive step
	// boundaries.
	async *asyncState
}

// NewNebula builds the Nebula strategy with paper-like defaults.
func NewNebula(task *Task, cfg Config) *Nebula {
	tc := modular.DefaultTrainConfig()
	// The offline stage runs on the cloud where compute is plentiful; the
	// modularized MoE-style model also needs a longer schedule than a plain
	// model to train its selector and modules jointly.
	tc.Epochs = 2 * PretrainEpochs
	tc.BatchSize = cfg.BatchSize
	tc.GroupSize = task.GroupSize
	return &Nebula{
		Task:               task,
		cfg:                cfg,
		TrainCfg:           tc,
		AbilityEnhancing:   true,
		LocalTraining:      true,
		CloudCollaboration: true,
		MinFraction:        0.2,
		MaxFraction:        0.45,
		CapExp:             0.3,
		PullBlend:          0.1,
		RederiveOverlap:    0.55,
		subs:               map[int]*modular.SubModel{},
		hasGatePkg:         map[int]bool{},
		wireRefs:           map[int]*edgenet.WireRef{},
	}
}

func (s *Nebula) Name() string { return "Nebula" }

// Pretrain runs the offline on-cloud stage: modularize (done by the
// builder), end-to-end train with load balancing, then ability-enhance.
func (s *Nebula) Pretrain(rng *tensor.RNG, proxy *data.Dataset) {
	s.Model = s.Task.BuildModular(rng)
	s.Model.TrainEndToEnd(rng, proxy, s.TrainCfg)
	if s.AbilityEnhancing {
		ae := s.TrainCfg
		ae.Epochs = (ae.Epochs + 1) / 2
		s.Model.AbilityEnhance(rng, proxy, ae)
	}
}

// deviceBudget turns a resource profile into the Eq. 2 budget vector: the
// fixed stem+head cost plus a capability fraction of the full module pool.
func (s *Nebula) deviceBudget(c *Client) modular.Budget {
	p := c.Mon.Profile()
	frac := s.capabilityFraction(p.ComputeFLOPS)
	stem, head, mods := s.Model.ModuleCosts()
	var poolBytes, poolFlops, poolMem float64
	for _, layer := range mods {
		for _, mc := range layer {
			poolBytes += float64(mc.Bytes)
			poolFlops += float64(mc.FwdFLOPs)
			poolMem += float64(mc.TrainMemEl)
		}
	}
	return modular.Budget{
		CommBytes:  float64(stem.Bytes+head.Bytes) + frac*poolBytes,
		FwdFLOPs:   float64(stem.FwdFLOPs+head.FwdFLOPs) + frac*poolFlops,
		MemElems:   float64(stem.TrainMemEl+head.TrainMemEl) + frac*poolMem,
		MaxModules: s.MaxModules,
	}
}

// capabilityFraction maps effective device compute (contention included) to
// the fraction of the module pool the device may hold.
func (s *Nebula) capabilityFraction(effectiveFLOPS float64) float64 {
	const flagship = 1.2e12 // device.Catalogue top tier
	r := effectiveFLOPS / flagship
	if r <= 0 {
		return s.MinFraction
	}
	frac := 1.0
	if r < 1 {
		frac = math.Pow(r, s.CapExp)
	}
	if frac < s.MinFraction {
		frac = s.MinFraction
	}
	if frac > s.MaxFraction {
		frac = s.MaxFraction
	}
	return frac
}

// importanceWith computes a device's module importance from (a sample of)
// its local data using only the lightweight selector. Callers pass their own
// selector copy (Selector.Clone) because Forward mutates activation caches
// and importance probes run concurrently across devices.
func (s *Nebula) importanceWith(sel *modular.Selector, c *Client) [][]float64 {
	ds := c.Dev.Train
	n := ds.Len()
	if n > 64 {
		n = 64
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, _ := ds.Batch(idx)
	return s.Model.ImportanceWith(sel, x)
}

// Adapt runs cfg.Rounds online rounds (or, for the w/o-cloud variant, pure
// local updates). With cfg.Async the rounds are deadline-paced and
// staleness-aware (docs/ASYNC.md) instead of bulk-synchronous.
func (s *Nebula) Adapt(rng *tensor.RNG, clients []*Client) {
	if !s.CloudCollaboration {
		s.adaptLocalOnly(rng, clients)
		return
	}
	for r := 0; r < s.cfg.Rounds; r++ {
		s.Round(rng, clients)
	}
}

// nebulaResult is one device's round outcome, filled by a worker and folded
// into strategy state by the coordinator in canonical device order.
type nebulaResult struct {
	sub    *modular.SubModel
	update *modular.Update
	down   int64
	up     int64
	t      float64 // slot candidate (link + train + fault time)
	gate   bool    // selector package transferred this round
	// wireRef is the device's new delta-coding reference when the round's
	// downlink ran through the compressed wire (nil otherwise).
	wireRef *edgenet.WireRef
	span    trace.Span
}

// roundPrep is the serial coordinator-prep output for one round's launch set:
// every master-stream draw (dropout rolls, fault pre-draws, stream splits)
// and every shared-state read (held sub-models, selector ownership), all in
// canonical device order, captured before any worker starts.
type roundPrep struct {
	part       []*Client
	drop       []bool
	held       []*modular.SubModel
	hadGate    []bool
	fetchOK    []bool
	fetchExtra []float64
	pushOK     []bool
	pushExtra  []float64
	wireRef    []*edgenet.WireRef
	streams    []*tensor.RNG
	// Distributed-trace context for this round's launch set: the sampled
	// trace (0 = round unsampled) and the round root span workers parent
	// their device spans under. Decided serially in the coordinator, read
	// freely by workers.
	trace span.TraceID
	root  span.SpanID
}

// prepRound runs the serial coordinator-prep phase over the sampled devices.
// Fault rolls are keyed hashes, but their stat counters mutate, so they are
// pre-drawn here too.
func (s *Nebula) prepRound(rng *tensor.RNG, part []*Client, round int) *roundPrep {
	n := len(part)
	p := &roundPrep{
		part:       part,
		drop:       make([]bool, n),
		held:       make([]*modular.SubModel, n),
		hadGate:    make([]bool, n),
		fetchOK:    make([]bool, n),
		fetchExtra: make([]float64, n),
		pushOK:     make([]bool, n),
		pushExtra:  make([]float64, n),
		wireRef:    make([]*edgenet.WireRef, n),
	}
	for i, c := range part {
		if s.cfg.DropoutProb > 0 {
			p.drop[i] = rng.Float64() < s.cfg.DropoutProb
		}
		if p.drop[i] {
			continue // device dropped out of this round
		}
		id := c.Dev.ID
		p.held[i] = s.subs[id]
		p.hadGate[i] = s.hasGatePkg[id]
		p.wireRef[i] = s.wireRefs[id] // refs are immutable; workers read freely
		p.fetchOK[i], p.fetchExtra[i] = s.Faults.Fetch(round, id)
		switch {
		case p.fetchOK[i]:
		case p.held[i] != nil:
			s.Faults.NoteFallback()
		default:
			s.Faults.NoteSkip()
		}
		if s.LocalTraining && (p.fetchOK[i] || p.held[i] != nil) {
			p.pushOK[i], p.pushExtra[i] = s.Faults.Push(round, id)
		}
	}
	p.streams = splitStreams(rng, n)
	return p
}

// runDevices is the parallel phase: each device works against its own
// derived stream, sub-model, selector copy, and result slot. round is the
// launch round (used only for span annotations). Workers never emit the
// client_update record themselves — the coordinator does, at commit time, so
// the same body serves both the sync path (commit in the launch round) and
// the async path (commit in the landing round).
func (s *Nebula) runDevices(p *roundPrep, round int) []nebulaResult {
	res := make([]nebulaResult, len(p.part))
	forEachDevice(s.cfg.Workers, len(p.part), func(i int) {
		if p.drop[i] {
			return
		}
		c := p.part[i]
		id := c.Dev.ID
		r := &res[i]
		// Per-device wall-clock span under the round root. Recording is
		// write-only and the trace/parent came from the serial prep, so the
		// parallel fan-out stays artifact-deterministic.
		dspan := s.Spans.Start(p.trace, p.root, "fed.device")
		dspan.SetDevice(id)
		dspan.SetRound(round)
		defer dspan.End()
		if !p.fetchOK[i] && p.held[i] == nil {
			// No cache to fall back on: sit the round out. The wasted link
			// time still bounds the slot (the device was trying).
			r.span.Notef("round %d device %d: fetch lost, no cached sub-model, skipping round", round, id)
			dspan.SetNote("fetch_lost_skip")
			r.t = p.fetchExtra[i]
			return
		}
		var sub *modular.SubModel
		var bytes int64
		fspan := s.Spans.Start(p.trace, dspan.ID(), "fed.fetch")
		fspan.SetDevice(id)
		imp := s.importanceWith(s.Model.Selector.Clone(), c)
		if p.fetchOK[i] {
			active := s.Model.Derive(imp, s.deviceBudget(c), s.ExactDerive)
			if p.held[i] != nil && overlapRatio(p.held[i].Mapping, active) >= s.RederiveOverlap {
				// Keep the personalized sub-model; pull the cloud's current
				// parameters for the held modules and blend them in. Under
				// WireCompress the pull crosses the simulated v2 link first,
				// so the device blends in the lossy reconstruction.
				cloudSub := s.Model.Extract(p.held[i].Mapping)
				if s.cfg.WireCompress {
					bytes, r.wireRef = wireDownlink(cloudSub, p.wireRef[i], s.wireDownOpts())
				} else {
					bytes = cloudSub.BackboneBytes()
				}
				blendSubModels(p.held[i], cloudSub, s.PullBlend)
				sub = p.held[i]
			} else {
				// First contact or the local task moved: new structure.
				sub = s.Model.Extract(active)
				if s.cfg.WireCompress {
					bytes, r.wireRef = wireDownlink(sub, p.wireRef[i], s.wireDownOpts())
				} else {
					bytes = sub.BackboneBytes()
				}
			}
			if !p.hadGate[i] {
				bytes += sub.SelectorBytes()
				r.gate = true
			}
		} else {
			// Download lost after retries: degrade to the cached sub-model —
			// train it on fresh local data without this round's cloud pull.
			r.span.Notef("round %d device %d: fetch lost, serving cached sub-model", round, id)
			fspan.SetNote("fetch_lost_cached")
			sub = p.held[i]
		}
		fspan.SetBytes(bytes)
		fspan.End()
		prof := c.Mon.Profile()
		t := prof.TransferTime(bytes) + p.fetchExtra[i]
		if s.LocalTraining {
			tspan := s.Spans.Start(p.trace, dspan.ID(), "fed.train")
			tspan.SetDevice(id)
			TrainLayer(p.streams[i], sub, c.Dev.Train, s.cfg.LocalEpochs, s.cfg.LR, s.cfg.BatchSize)
			tspan.End()
			upBytes := int64(nn.ParamCount(sub.Params())) * 4 // modules+stem+head; selector is not updated on edge
			_, fwd, _ := s.Model.SelectionCost(sub.Mapping)
			t += trainTime(prof, fwd, c.Dev.Train.Len(), s.cfg.LocalEpochs, s.cfg.BatchSize)
			t += p.pushExtra[i]
			if p.pushOK[i] {
				pspan := s.Spans.Start(p.trace, dspan.ID(), "fed.push")
				pspan.SetDevice(id)
				hist := c.Dev.Train.ClassHistogram()
				cw := make([]float64, len(hist))
				for ci, cnt := range hist {
					cw[ci] = float64(cnt)
				}
				upSub := sub
				if s.cfg.WireCompress {
					// Push crosses the simulated v2 link: delta + top-k
					// against this round's downlink reconstruction (or the
					// last one, when the fetch was lost). The cloud
					// aggregates the wire's reconstruction; the device keeps
					// its full-precision local weights.
					ref := r.wireRef
					if ref == nil {
						ref = p.wireRef[i]
					}
					upBytes, upSub = wireUplink(s.Model, sub, ref, s.wireUpOpts())
				}
				r.update = &modular.Update{Sub: upSub, Importance: imp, Weight: float64(c.Dev.Train.Len()), ClassWeights: cw}
				t += prof.TransferTime(upBytes)
				r.up = upBytes
				pspan.SetBytes(upBytes)
				pspan.End()
			} else {
				// Upload lost after retries: the local training still
				// happened (and improved the cached sub-model), but this
				// round aggregates without the device.
				r.span.Notef("round %d device %d: push lost, round aggregates without it", round, id)
			}
		}
		r.sub, r.down, r.t = sub, bytes, t
	})
	return res
}

// commitDevice folds one device's finished result into strategy state: trace
// span flush + client_update emission, cost and metric accumulation, and
// strategy-map writes. It runs only on the serial coordinator, in the round
// the result lands in. stale is landing−launch in rounds (0 for on-time /
// bulk-sync); a stale update's aggregation weight decays by
// StalenessDecay^stale. Returns the device's update for the aggregation list
// (nil if the device sat out or its push was lost).
func (s *Nebula) commitDevice(landing int, c *Client, r *nebulaResult, stale int) *modular.Update {
	s.Trace.Flush(&r.span)
	if r.sub == nil {
		return nil // sat the round out; the span note above is its only record
	}
	m := s.metrics()
	id := c.Dev.ID
	if stale > 0 {
		s.Trace.LateUpdate(landing, id, r.sub.NumModules(), r.down, r.up, r.t, stale)
	} else {
		s.Trace.ClientUpdate(landing, id, r.sub.NumModules(), r.down, r.up, r.t)
	}
	s.costs.BytesDown += r.down
	s.costs.BytesUp += r.up
	m.bytesDown.Add(float64(r.down))
	m.bytesUp.Add(float64(r.up))
	m.deviceSimSeconds.Observe(r.t)
	s.subs[id] = r.sub
	if r.gate {
		s.hasGatePkg[id] = true
	}
	if r.wireRef != nil {
		s.wireRefs[id] = r.wireRef
		m.wirePayloads.Inc()
	}
	if r.update == nil {
		return nil
	}
	if stale > 0 {
		m.lateUpdates.Inc()
		m.staleRounds.Add(float64(stale))
		r.update.Weight *= math.Pow(s.stalenessDecay(), float64(stale))
	}
	return r.update
}

// stalenessDecay returns the configured decay with its default applied.
func (s *Nebula) stalenessDecay() float64 {
	if s.cfg.StalenessDecay > 0 {
		return s.cfg.StalenessDecay
	}
	return 0.5
}

// aggregate folds the round's landed updates into the cloud model and closes
// the round's accounting with the given slot time.
func (s *Nebula) aggregate(round int, updates []*modular.Update, slot float64) {
	m := s.metrics()
	if len(updates) > 0 {
		swAggregate := obs.StartTimer()
		s.Model.AggregateModuleWise(updates)
		s.Trace.Aggregate(round, len(updates))
		m.phaseAggregate.ObserveSince(swAggregate)
		m.aggregations.Inc()
		m.updates.Add(float64(len(updates)))
	}
	s.Trace.RoundEnd(round, slot)
	s.closeSlot(slot)
}

// closeSlot charges one round's slot time to Costs and the round metrics.
func (s *Nebula) closeSlot(slot float64) {
	m := s.metrics()
	s.costs.SimTime += slot
	s.costs.Rounds++
	m.simSeconds.Add(slot)
	m.roundSlotSeconds.Observe(slot)
	m.rounds.Inc()
}

// Round runs one online round of the single Nebula round engine: sample,
// prep, run every launched device in parallel, land the finished work in
// sim-clock arrival order, aggregate module-wise. Without cfg.Async every
// round is a barrier round: the slot is the slowest launched device and every
// device lands at its end. With cfg.Async (docs/ASYNC.md) the round first
// applies fleet churn and samples only idle devices; the first round (while
// no deadline is set) is a barrier round that calibrates the deadline, and
// every later round closes at that deadline: work that completes by then
// lands, together with carried stragglers that complete by then, and work
// that overruns pends into a later round.
func (s *Nebula) Round(rng *tensor.RNG, clients []*Client) {
	async := s.cfg.Async
	if async && s.async == nil {
		s.async = &asyncState{busy: map[int]float64{}, deadline: s.cfg.RoundDeadline}
	}
	a := s.async
	var start, deadline float64
	if async {
		start, deadline = a.clock, a.deadline
	}
	round := s.costs.Rounds + 1
	m := s.metrics()
	s.Trace.RoundStartAt(round, deadline)
	m.currentRound.Set(float64(round))
	if async {
		m.roundDeadline.Set(deadline)
	}
	wall := obs.StartTimer()
	defer func() { m.noteRoundWall(wall.Seconds()) }()
	// Root span for the round; the sampling decision is keyed on the round
	// number, so every worker count and replay traces the same rounds. Churn,
	// pend and land events record as marker children.
	tid, _ := s.Spans.Trace(int64(round))
	rs := s.Spans.Start(tid, 0, "fed.round")
	rs.SetRound(round)
	defer rs.End()

	eligible := clients
	if async {
		s.applyChurn(round, clients, tid, rs.ID())
		eligible = a.idle(clients)
	}
	part := sampleClients(rng, eligible, s.cfg.DevicesPerRound)

	swPrep := obs.StartTimer()
	p := s.prepRound(rng, part, round)
	p.trace, p.root = tid, rs.ID()
	m.phasePrep.ObserveSince(swPrep)

	swParallel := obs.StartTimer()
	res := s.runDevices(p, round)
	m.phaseParallel.ObserveSince(swParallel)

	// A barrier round's slot is its slowest launched device; a deadline
	// round's slot is the deadline.
	barrier := deadline == 0
	slot := deadline
	var times []float64
	if barrier {
		for i := range res {
			if p.drop[i] {
				continue
			}
			times = append(times, res[i].t)
			if res[i].t > slot {
				slot = res[i].t
			}
		}
	}
	roundEnd := start + slot

	// Landing set: carried stragglers whose work completes by the round's
	// end, then this round's fresh completions. Fresh work that overruns the
	// deadline pends instead, and its device stays busy (unsampleable) until
	// its seeded completion time.
	var landings []landing
	if async {
		landings = a.landCarried(roundEnd)
	}
	for i := range res {
		if p.drop[i] {
			continue
		}
		done := roundEnd // a barrier round waits for everyone
		if !barrier {
			done = start + res[i].t
		}
		if done <= roundEnd {
			landings = append(landings, landing{part[i], round, done, &res[i]})
			continue
		}
		a.busy[part[i].Dev.ID] = done
		a.pending = append(a.pending, &asyncPending{c: part[i], launch: round, done: done, res: res[i]})
		// Marker span: this device's work overran the deadline and pends.
		pe := s.Spans.Start(tid, rs.ID(), "fed.pend")
		pe.SetDevice(part[i].Dev.ID)
		pe.SetRound(round)
		pe.End()
	}
	// Arrival order is the seeded sim clock: stable-sort by completion time,
	// with the (launch round, canonical index) insertion order breaking ties.
	// Every device of a barrier round lands at the same time, so the fold
	// keeps canonical device order.
	sort.SliceStable(landings, func(i, j int) bool { return landings[i].done < landings[j].done })

	// Canonical reduce: commit in arrival order on the coordinator. Metric
	// updates here are part of the serial phase, so counter values (and float
	// accumulation order) are a pure function of the seeds — exactly what
	// trace.Summarize recomputes.
	var updates []*modular.Update
	live := 0
	for _, ld := range landings {
		stale := round - ld.launch
		if stale > 0 {
			// Marker span: a carried straggler update lands this round.
			le := s.Spans.Start(tid, rs.ID(), "fed.land")
			le.SetDevice(ld.c.Dev.ID)
			le.SetRound(round)
			le.SetAttempt(stale)
			le.End()
		}
		if u := s.commitDevice(round, ld.c, ld.res, stale); u != nil {
			updates = append(updates, u)
		}
		if ld.res.sub != nil {
			live++
		}
	}
	m.participants.Set(float64(live))
	s.aggregate(round, updates, slot)
	if async {
		a.clock = roundEnd
		if barrier {
			a.deadline = calibrateDeadline(times)
		}
	}
}

// bootstrap derives a fresh sub-model for a device that holds none: probe
// module importance on its local data, solve Eq. 2 under its budget, extract.
// Worker-safe: it reads only the cloud model and uses a private selector copy.
func (s *Nebula) bootstrap(c *Client) *modular.SubModel {
	imp := s.importanceWith(s.Model.Selector.Clone(), c)
	return s.Model.Extract(s.Model.Derive(imp, s.deviceBudget(c), s.ExactDerive))
}

// adopt stores a bootstrapped sub-model as device id's own and charges its
// whole download — backbone and selector, a pure download — to Costs and the
// bytes-down counter. Coordinator-only. Returns the bytes charged.
func (s *Nebula) adopt(id int, sub *modular.SubModel) int64 {
	down := sub.ParamBytes()
	s.subs[id] = sub
	s.hasGatePkg[id] = true
	s.costs.BytesDown += down
	s.metrics().bytesDown.Add(float64(down))
	return down
}

// adaptLocalOnly implements the w/o-cloud ablation: derive once, then only
// local training. Devices run concurrently with the same coordinator-prep /
// parallel / canonical-reduce structure as the full round.
func (s *Nebula) adaptLocalOnly(rng *tensor.RNG, clients []*Client) {
	n := len(clients)
	held := make([]*modular.SubModel, n)
	for i, c := range clients {
		held[i] = s.subs[c.Dev.ID]
	}
	streams := splitStreams(rng, n)
	subs := make([]*modular.SubModel, n)
	times := make([]float64, n)
	forEachDevice(s.cfg.Workers, n, func(i int) {
		c := clients[i]
		sub := held[i]
		if sub == nil {
			sub = s.bootstrap(c)
		}
		TrainLayer(streams[i], sub, c.Dev.Train, s.cfg.FinetuneEpochs, s.cfg.LR, s.cfg.BatchSize)
		_, fwd, _ := s.Model.SelectionCost(sub.Mapping)
		subs[i] = sub
		times[i] = trainTime(c.Mon.Profile(), fwd, c.Dev.Train.Len(), s.cfg.FinetuneEpochs, s.cfg.BatchSize)
	})
	var slot float64
	m := s.metrics()
	for i, c := range clients {
		if held[i] == nil {
			s.adopt(c.Dev.ID, subs[i])
		}
		if times[i] > slot {
			slot = times[i]
		}
		m.deviceSimSeconds.Observe(times[i])
	}
	s.closeSlot(slot)
}

// overlapRatio computes the Jaccard overlap between a held sub-model's
// module sets and a freshly derived selection.
func overlapRatio(held [][]int, active [][]int) float64 {
	inter, union := 0, 0
	for l := range held {
		seen := map[int]bool{}
		for _, i := range held[l] {
			seen[i] = true
		}
		both := map[int]bool{}
		for _, i := range held[l] {
			both[i] = true
		}
		if l < len(active) {
			for _, i := range active[l] {
				if seen[i] {
					inter++
				}
				both[i] = true
			}
		}
		union += len(both)
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// blendSubModels blends cloud parameters into a local sub-model:
// local = (1−b)·local + b·cloud, for parameters and ALL layer states —
// stem, the selected modules, and head. Module states matter: they carry
// BatchNorm running statistics, and a refresh that pulls module weights but
// not their normalization stats would serve cloud weights under stale local
// normalization.
func blendSubModels(local, cloud *modular.SubModel, b float32) {
	lp, cp := local.Params(), cloud.Params()
	for i := range lp {
		lp[i].W.Scale(1 - b)
		lp[i].W.AddScaled(b, cp[i].W)
	}
	ls, cs := local.AllStates(), cloud.AllStates()
	for i := range ls {
		ls[i].Scale(1 - b)
		ls[i].AddScaled(b, cs[i])
	}
}

// LocalAccuracy evaluates each device's current sub-model; devices that
// never participated bootstrap one on the spot (a pure download, charged).
// Evaluation fans out across devices; bootstrapped sub-models and their
// charges are adopted in canonical device order.
func (s *Nebula) LocalAccuracy(clients []*Client) float64 {
	if len(clients) == 0 {
		return 0
	}
	n := len(clients)
	held := make([]*modular.SubModel, n)
	for i, c := range clients {
		held[i] = s.subs[c.Dev.ID]
	}
	fresh := make([]*modular.SubModel, n)
	acc := meanAccuracy(s.cfg.Workers, n, nil, func(_ any, i int) float64 {
		c := clients[i]
		sub := held[i]
		if sub == nil {
			sub = s.bootstrap(c)
			fresh[i] = sub
		}
		return EvalLayer(sub, c.Dev.TestSet(s.cfg.TestPerDevice))
	})
	for i, c := range clients {
		if fresh[i] != nil {
			s.adopt(c.Dev.ID, fresh[i])
		}
	}
	s.metrics().lastAccuracy.Set(acc)
	return acc
}

// Costs returns accumulated accounting.
func (s *Nebula) Costs() Costs { return s.costs }

// SubModelOf returns the stored sub-model of a client (nil if none).
func (s *Nebula) SubModelOf(id int) *modular.SubModel { return s.subs[id] }
