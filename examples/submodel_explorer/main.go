// Sub-model explorer: walks the design space the modularized cloud model
// spans — how many sub-models exist, how knapsack-derived selections trade
// size for accuracy, and what module ability-enhancing training buys — the
// interactive companion to the paper's Figure 12.
//
// Run with:
//
//	go run ./examples/submodel_explorer
package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func main() {
	const seed = 21
	rng := tensor.NewRNG(seed)
	task := fed.Image100Task(seed, fed.ScaleQuick)

	model := task.BuildModular(rng)
	fmt.Println("design space of the modularized cloud model:")
	total := 0.0
	for l, layer := range model.Layers {
		fmt.Printf("  layer %d: %d modules\n", l, layer.N())
		total += float64(layer.N())
	}
	var combos float64 = 1
	for _, layer := range model.Layers {
		combos *= math.Pow(2, float64(layer.N())) - 1
	}
	fmt.Printf("  distinct sub-models: ~2^%.0f (%.3g)\n\n", math.Log2(combos), combos)

	// Train offline (end-to-end + ability-enhancing).
	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), 30)
	tc := modular.DefaultTrainConfig()
	tc.Epochs = 4
	tc.GroupSize = task.GroupSize
	fmt.Println("offline training (end-to-end + ability-enhancing)...")
	model.TrainEndToEnd(rng, proxy, tc)
	masks := model.AbilityEnhance(rng, proxy, tc)
	fmt.Printf("sub-task → module assignment (layer 0): %d sub-tasks × %d modules\n\n",
		len(masks[0]), model.Layers[0].N())

	// A device whose local task is 4 of the classes.
	local := data.AllClasses(task.Classes)[:4]
	test := data.MakeDataset(rng, task.Gen, data.DefaultEnv(), local, 300)
	probe, _ := test.Batch(indices(48))
	imp := model.Importance(probe)

	// Importance-ranked modules for this device.
	fmt.Println("module importance for the device's local task (layer 0, top 5):")
	type mi struct {
		idx int
		imp float64
	}
	var ms []mi
	for i, v := range imp[0] {
		ms = append(ms, mi{i, v})
	}
	sort.Slice(ms, func(a, b int) bool { return ms[a].imp > ms[b].imp })
	for _, m := range ms[:5] {
		fmt.Printf("  module %2d: importance %.4f\n", m.idx, m.imp)
	}

	// Sweep budgets: the paper's Pareto curve of selected sub-models.
	fmt.Println("\nknapsack-selected sub-models across resource budgets:")
	fmt.Println("budget  modules  params      accuracy")
	full := nn.ParamCount(model.BackboneParams())
	for _, frac := range []float64{0.1, 0.2, 0.35, 0.5, 0.75, 1.0} {
		b := fracBudget(model, frac)
		active := model.Derive(imp, b, false)
		sub := model.Extract(active)
		acc := fed.EvalLayer(sub, test)
		fmt.Printf("%5.0f%%  %7d  %-10s  %s\n", frac*100, sub.NumModules(),
			fmt.Sprintf("%d", nn.ParamCount(sub.Params())), metrics.FmtPct(acc))
	}
	fmt.Printf("\nfull backbone: %d params — small sub-models saturate because the\n", full)
	fmt.Println("local task is a sub-task of the global task (paper §6.4, obs. iii).")
}

func indices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func fracBudget(m *modular.Model, frac float64) modular.Budget {
	stem, head, mods := m.ModuleCosts()
	var b modular.Budget
	for _, layer := range mods {
		for _, mc := range layer {
			b.CommBytes += float64(mc.Bytes)
			b.FwdFLOPs += float64(mc.FwdFLOPs)
			b.MemElems += float64(mc.TrainMemEl)
		}
	}
	b.CommBytes = float64(stem.Bytes+head.Bytes) + frac*b.CommBytes
	b.FwdFLOPs = float64(stem.FwdFLOPs+head.FwdFLOPs) + frac*b.FwdFLOPs
	b.MemElems = float64(stem.TrainMemEl+head.TrainMemEl) + frac*b.MemElems
	return b
}
