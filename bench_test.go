// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper, each driving the corresponding experiment runner
// at a reduced (benchmark-friendly) scale, plus micro-benchmarks of the hot
// kernels and ablation benches for the design choices DESIGN.md calls out.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale experiment output comes from cmd/nebula-sim (see EXPERIMENTS.md).
package main

import (
	"io"
	"testing"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/experiments"
	"repro/internal/fed"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/solve"
	"repro/internal/tensor"
)

// benchOpts returns experiment options small enough for repeated bench runs.
func benchOpts(b *testing.B) experiments.Options {
	o := experiments.Default()
	o.Out = io.Discard
	o.Devices = 8
	o.ProxyPerClass = 16
	o.Rounds = 2
	o.DevicesPerRound = 4
	o.LocalEpochs = 1
	o.FinetuneEpochs = 2
	o.PretrainEpochs = 2
	o.AdaptSteps = 3
	o.RandomSubModels = 4
	return o
}

// --- one benchmark per paper artifact --------------------------------------

func BenchmarkFig1aDataShiftMotivation(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFig1a(o)
	}
}

func BenchmarkFig1bContentionLatency(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFig1b(o)
	}
}

func BenchmarkFig2ResourceSurvey(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFig2(o)
	}
}

func BenchmarkTable1HARRow(b *testing.B) {
	// The full 7-row table is a CLI-scale run; the bench regenerates its
	// first row (HAR/MLP, all six systems) per iteration.
	o := benchOpts(b)
	rows := experiments.Table1Rows(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunRowBench(o, rows[0])
	}
}

func BenchmarkFig7CommunicationCost(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFig7Row(o, 0)
	}
}

func BenchmarkFig8MemoryFootprint(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFig8(o)
	}
}

func BenchmarkFig9TrainingLatency(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFig9(o)
	}
}

func BenchmarkFig10ContinuousAdaptation(b *testing.B) {
	o := benchOpts(b)
	task := fed.HARTask(o.Seed, o.Scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunContinuousTaskBench(o, task)
	}
}

func BenchmarkFig11AdaptationSummary(b *testing.B) {
	o := benchOpts(b)
	task := fed.HARTask(o.Seed, o.Scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunContinuousTaskBench(o, task)
		experiments.Fig11Table([]*experiments.ContinuousResult{res})
	}
}

func BenchmarkFig12SubModelLandscape(b *testing.B) {
	o := benchOpts(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFig12(o)
	}
}

func BenchmarkFig13aResourceSensitivity(b *testing.B) {
	o := benchOpts(b)
	rows := experiments.Table1Rows(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.NebulaAccuracyAtRatioBench(o, rows[1], 0.3)
	}
}

func BenchmarkFig13bGranularitySensitivity(b *testing.B) {
	o := benchOpts(b)
	task := fed.Image10Task(o.Seed, o.Scale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.NebulaAccuracyAtGranularityBench(o, task, 8)
	}
}

func BenchmarkFig13cConvergenceSpeed(b *testing.B) {
	o := benchOpts(b)
	o.Rounds = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig13c(o)
	}
}

// --- kernel micro-benchmarks ------------------------------------------------

func BenchmarkGemm128(b *testing.B) {
	rng := tensor.NewRNG(1)
	a := tensor.New(128, 128)
	bb := tensor.New(128, 128)
	c := tensor.New(128, 128)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(bb, 0, 1)
	b.SetBytes(128 * 128 * 128 * 2 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(c, a, bb)
	}
}

// BenchmarkGemm128Naive is the retained pre-blocking kernel on the same
// shape; the ratio to BenchmarkGemm128 is the headline speedup recorded in
// BENCH_kernels.json.
func BenchmarkGemm128Naive(b *testing.B) {
	rng := tensor.NewRNG(1)
	a := tensor.New(128, 128)
	bb := tensor.New(128, 128)
	c := tensor.New(128, 128)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(bb, 0, 1)
	b.SetBytes(128 * 128 * 128 * 2 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.GemmNaive(false, false, 128, 128, 128, 1, a.Data, bb.Data, 0, c.Data)
	}
}

// BenchmarkGemmConvShape is the im2col GEMM shape of a 64-channel 3×3×64
// convolution over a 16×16 plane: [64,576]·[576,256].
func BenchmarkGemmConvShape(b *testing.B) {
	benchGemmShape(b, 64, 256, 576, false)
}

func BenchmarkGemmConvShapeNaive(b *testing.B) {
	benchGemmShape(b, 64, 256, 576, true)
}

func benchGemmShape(b *testing.B, m, n, k int, naive bool) {
	rng := tensor.NewRNG(1)
	a := tensor.New(m, k)
	bb := tensor.New(k, n)
	c := tensor.New(m, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(bb, 0, 1)
	b.SetBytes(int64(m) * int64(n) * int64(k) * 2 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			tensor.GemmNaive(false, false, m, n, k, 1, a.Data, bb.Data, 0, c.Data)
		} else {
			tensor.Gemm(false, false, m, n, k, 1, a.Data, bb.Data, 0, c.Data)
		}
	}
}

// BenchmarkDenseStep measures a steady-state Dense forward+backward pair;
// allocs/op must stay at 0 (pinned by TestDenseZeroAllocSteadyState).
func BenchmarkDenseStep(b *testing.B) {
	rng := tensor.NewRNG(8)
	d := nn.NewDense(rng, 256, 128)
	x := tensor.New(64, 256)
	g := tensor.New(64, 128)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(g, 0, 1)
	d.Forward(x, true)
	d.Backward(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x, true)
		d.Backward(g)
	}
}

// BenchmarkConvStep measures a steady-state Conv2D forward+backward pair;
// allocs/op must stay at 0 (pinned by TestConvZeroAllocSteadyState).
func BenchmarkConvStep(b *testing.B) {
	rng := tensor.NewRNG(9)
	conv := nn.NewConv2D(rng, 16, 32, 3, 1, 1)
	x := tensor.New(16, 16, 12, 12)
	g := tensor.New(16, 32, 12, 12)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(g, 0, 1)
	conv.Forward(x, true)
	conv.Backward(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
		conv.Backward(g)
	}
}

// BenchmarkWireEncodeTopK is nebula-bench's wire_encode_topk_8500 row: one
// mlp-dynamic-sized uplink encode (8,500-coordinate delta, top-k 0.25).
func BenchmarkWireEncodeTopK(b *testing.B) {
	rng := tensor.NewRNG(11)
	base := make([]float32, 8500)
	vec := make([]float32, len(base))
	for i := range base {
		base[i] = float32(rng.NormFloat64())
		vec[i] = base[i] + float32(rng.NormFloat64()*0.01)
	}
	opts := edgenet.WireOpts{TopK: 0.25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edgenet.EncodeVec(vec, base, opts)
	}
}

func BenchmarkConvForward(b *testing.B) {
	rng := tensor.NewRNG(2)
	conv := nn.NewConv2D(rng, 16, 32, 3, 1, 1)
	x := tensor.New(16, 16, 12, 12)
	rng.FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkModularForward(b *testing.B) {
	rng := tensor.NewRNG(3)
	m := modular.NewModularMLP(rng, 64, 48, 6, modular.DefaultConfig())
	x := tensor.New(32, 64)
	rng.FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, nil, false)
	}
}

func BenchmarkSubModelDerivationGreedy(b *testing.B) {
	rng := tensor.NewRNG(4)
	m := modular.NewModularMLP(rng, 64, 48, 6, modular.DefaultConfig())
	x := tensor.New(32, 64)
	rng.FillNormal(x, 0, 1)
	imp := m.Importance(x)
	budget := benchBudget(m, 0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Derive(imp, budget, false)
	}
}

// --- ablation benches (design choices from DESIGN.md) ----------------------

// BenchmarkAblationGreedyVsExactKnapsack compares the Eq. 2 solvers.
func BenchmarkAblationGreedyVsExactKnapsack(b *testing.B) {
	rng := tensor.NewRNG(5)
	items := make([]solve.Item, 32)
	for i := range items {
		items[i] = solve.Item{Value: rng.Float64(), Costs: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
	}
	budgets := []float64{6, 6, 6}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve.GreedyKnapsack(items, budgets, nil)
		}
	})
	b.Run("branch-and-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve.BranchBoundKnapsack(items, budgets, nil, 50000)
		}
	})
}

// BenchmarkAblationTopK measures how the routing fan-out k changes forward
// cost — the accuracy/latency knob of the module layer.
func BenchmarkAblationTopK(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(kName(k), func(b *testing.B) {
			rng := tensor.NewRNG(6)
			cfg := modular.DefaultConfig()
			cfg.TopK = k
			m := modular.NewModularMLP(rng, 64, 48, 6, cfg)
			x := tensor.New(32, 64)
			rng.FillNormal(x, 0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Forward(x, nil, false)
			}
		})
	}
}

func kName(k int) string {
	return "k=" + string(rune('0'+k))
}

// BenchmarkAblationModuleWiseVsNaiveAverage contrasts Nebula's module-wise
// importance-weighted aggregation with naive overlapped averaging (the
// conflict-prone strategy Section 5.2 argues against). Reported metric: the
// post-aggregation accuracy drop of naive averaging (logged once).
func BenchmarkAblationModuleWiseVsNaiveAverage(b *testing.B) {
	rng := tensor.NewRNG(7)
	gen := data.NewSynthHAR(3)
	m := modular.NewModularMLP(rng, 64, 48, 6, modular.DefaultConfig())
	proxy := data.MakeBalancedDataset(rng, gen, data.DefaultEnv(), 20)
	tc := modular.DefaultTrainConfig()
	tc.Epochs = 2
	m.TrainEndToEnd(rng, proxy, tc)
	subs := make([]*modular.Update, 4)
	for i := range subs {
		active := [][]int{{i % 4, (i + 1) % 4, 15}}
		sub := m.Extract(active)
		imp := m.Importance(probeBatch(rng))
		subs[i] = &modular.Update{Sub: sub, Importance: imp, Weight: 50}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AggregateModuleWise(subs)
	}
}

func probeBatch(rng *tensor.RNG) *tensor.Tensor {
	x := tensor.New(16, 64)
	rng.FillNormal(x, 0, 1)
	return x
}

func benchBudget(m *modular.Model, frac float64) modular.Budget {
	stem, head, mods := m.ModuleCosts()
	var bgt modular.Budget
	for _, layer := range mods {
		for _, mc := range layer {
			bgt.CommBytes += float64(mc.Bytes)
			bgt.FwdFLOPs += float64(mc.FwdFLOPs)
			bgt.MemElems += float64(mc.TrainMemEl)
		}
	}
	bgt.CommBytes = float64(stem.Bytes+head.Bytes) + frac*bgt.CommBytes
	bgt.FwdFLOPs = float64(stem.FwdFLOPs+head.FwdFLOPs) + frac*bgt.FwdFLOPs
	bgt.MemElems = float64(stem.TrainMemEl+head.TrainMemEl) + frac*bgt.MemElems
	return bgt
}
