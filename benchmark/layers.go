package main

import (
	"fmt"

	"repro/internal/obs/span"
)

// perLayerNames lists every per-layer metric with its unit. Each workload
// reports all of them; a layer that does no work on a workload reads 0
// there. README.md maps each metric to its source and to the end-to-end
// metric it should move.
var perLayerNames = []struct{ name, unit string }{
	{"tensor.cpu_share", "ratio"},
	{"tensor.conv_gather_share", "ratio"},
	{"tensor.gemm_kernel_share", "ratio"},
	{"tensor.gemm_calls_per_round", "count"},
	{"tensor.conv_calls_per_round", "count"},
	{"tensor.scratch_miss_share", "ratio"},
	{"nn.cpu_share", "ratio"},
	{"nn.batchnorm_share", "ratio"},
	{"nn.relu_share", "ratio"},
	{"nn.optimizer_share", "ratio"},
	{"modular.cpu_share", "ratio"},
	{"modular.aggregate_ms", "ms"},
	{"fed.cpu_share", "ratio"},
	{"fed.prep_ms", "ms"},
	{"fed.parallel_ms", "ms"},
	{"fed.device_ms_p50", "ms"},
	{"fed.device_ms_p90", "ms"},
	{"fed.fetch_ms_p50", "ms"},
	{"fed.train_ms_p50", "ms"},
	{"fed.push_ms_p50", "ms"},
	{"fed.worker_idle_share", "ratio"},
	{"fed.late_update_share", "ratio"},
	{"fed.eval_s", "s"},
	{"edgenet.cpu_share", "ratio"},
	{"edgenet.topk_share", "ratio"},
	{"edgenet.gob_cpu_share", "ratio"},
	{"edgenet.fetch_ms_p50", "ms"},
	{"edgenet.push_ms_p50", "ms"},
	{"edgenet.srv_derive_ms_p50", "ms"},
	{"edgenet.srv_lock_wait_ms_p50", "ms"},
	{"edgenet.srv_encode_ms_p50", "ms"},
	{"edgenet.srv_decode_ms_p50", "ms"},
	{"edgenet.srv_aggregate_ms_p50", "ms"},
	{"edgenet.delta_payload_share", "ratio"},
	{"edgenet.retries", "count"},
	{"runtime.cpu_share", "ratio"},
	{"runtime.alloc_mb_per_round", "MiB"},
	{"runtime.gc_cycles_per_round", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.fleet_step_ms", "ms"},
	{"bench.importance_ms_p50", "ms"},
	{"bench.traced_rounds", "count"},
	{"bench.profile_samples", "count"},
	{"bench.spans", "count"},
}

// perLayer computes the per-layer metrics of the traced repetition, plus
// the span self-time roll-up.
func perLayer(t *tracer, spans []span.Span, eps []episodeRecord) (map[string]metric, []kindSummary, error) {
	if t == nil {
		return nil, nil, fmt.Errorf("trace mode ran no traced repetition")
	}
	if t.profErr != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", t.profErr)
	}
	prof, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	// The traced episode replays episode 0: same inputs, tracing on.
	var traced episodeRecord
	for _, r := range eps {
		if r.traced {
			traced = r
		}
	}
	rounds := float64(len(traced.log.roundMs))
	layer := prof.layerShares()
	meanMs := func(d regValue) float64 { return ratio(d.sum, float64(d.count)) * 1e3 }
	p50 := func(kind string) float64 { return median(durationsMs(spans, kind)) }

	v := map[string]float64{
		"tensor.cpu_share":            layer["tensor"],
		"tensor.conv_gather_share":    prof.stackShare("repro/internal/tensor.packBConv", "repro/internal/tensor.Col2Im"),
		"tensor.gemm_kernel_share":    prof.stackShare("repro/internal/tensor.gemmKernel"),
		"tensor.gemm_calls_per_round": ratio(t.regDelta("nebula_tensor_gemm_total{").value, rounds),
		"tensor.conv_calls_per_round": ratio(t.regDelta("nebula_tensor_conv_total{").value, rounds),
		"tensor.scratch_miss_share": ratio(t.regDelta(`nebula_tensor_scratch_total{outcome="miss"}`).value,
			t.regDelta("nebula_tensor_scratch_total{").value),

		"nn.cpu_share":       layer["nn"],
		"nn.batchnorm_share": prof.stackShare("repro/internal/nn.(*BatchNorm)"),
		"nn.relu_share":      prof.stackShare("repro/internal/nn.(*ReLU)"),
		"nn.optimizer_share": prof.stackShare("repro/internal/nn.(*SGD)", "repro/internal/nn.(*Adam)"),

		"modular.cpu_share":    layer["modular"],
		"modular.aggregate_ms": meanMs(t.regDelta(`nebula_fed_phase_wall_seconds{phase="aggregate"}`)),

		"fed.cpu_share":         layer["fed"],
		"fed.prep_ms":           meanMs(t.regDelta(`nebula_fed_phase_wall_seconds{phase="prep"}`)),
		"fed.parallel_ms":       meanMs(t.regDelta(`nebula_fed_phase_wall_seconds{phase="parallel"}`)),
		"fed.device_ms_p50":     p50("fed.device"),
		"fed.device_ms_p90":     quantile(durationsMs(spans, "fed.device"), 0.9),
		"fed.fetch_ms_p50":      p50("fed.fetch"),
		"fed.train_ms_p50":      p50("fed.train"),
		"fed.push_ms_p50":       p50("fed.push"),
		"fed.worker_idle_share": 0,
		"fed.late_update_share": ratio(t.regDelta("nebula_fed_late_updates_total{").value, t.regDelta("nebula_fed_updates_aggregated_total{").value),
		"fed.eval_s":            traced.eval,

		"edgenet.cpu_share":            layer["edgenet"],
		"edgenet.topk_share":           prof.stackShare("repro/internal/edgenet.topKMask"),
		"edgenet.gob_cpu_share":        prof.stackShare("encoding/gob."),
		"edgenet.fetch_ms_p50":         p50("bench.fetch"),
		"edgenet.push_ms_p50":          p50("bench.push"),
		"edgenet.srv_derive_ms_p50":    p50("srv.derive"),
		"edgenet.srv_lock_wait_ms_p50": p50("srv.lock_wait"),
		"edgenet.srv_encode_ms_p50":    p50("srv.encode"),
		"edgenet.srv_decode_ms_p50":    p50("srv.decode"),
		"edgenet.srv_aggregate_ms_p50": p50("srv.aggregate"),
		"edgenet.delta_payload_share": ratio(t.regDelta(`nebula_edgenet_server_wire_total{encoding="delta"}`).value,
			t.regDelta(`nebula_edgenet_server_wire_total{encoding="delta"}`).value+t.regDelta(`nebula_edgenet_server_wire_total{encoding="full"}`).value),
		"edgenet.retries": t.regDelta(`nebula_edgenet_client_events_total{event="retry"}`).value +
			t.regDelta(`nebula_edgenet_server_events_total{event="retry"}`).value,

		"runtime.cpu_share":           layer["runtime"],
		"runtime.alloc_mb_per_round":  ratio(t.rtOnline.allocBytes/(1<<20), rounds),
		"runtime.gc_cycles_per_round": ratio(t.rtOnline.gcCycles, rounds),
		"runtime.gc_cpu_share":        ratio(t.rtOnline.gcCPU, t.rtOnline.totalCPU),

		"bench.trace_overhead_share": ratio(median(traced.log.roundMs), median(eps[0].log.roundMs)) - 1,
		"bench.fleet_step_ms":        median(traced.log.stepMs),
		"bench.importance_ms_p50":    p50("bench.importance"),
		"bench.traced_rounds":        rounds,
		"bench.profile_samples":      float64(prof.total()),
		"bench.spans":                float64(len(spans)),
	}
	// A worker is idle for whatever part of the parallel phase no device
	// task covers: the slowest device of a round sets the phase's length.
	if par := t.regDelta(`nebula_fed_phase_wall_seconds{phase="parallel"}`).sum; par > 0 {
		v["fed.worker_idle_share"] = 1 - sumSeconds(spans, "fed.device")/(workers*par)
	}
	out := make(map[string]metric, len(perLayerNames))
	for _, n := range perLayerNames {
		x, ok := v[n.name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s has no value", n.name)
		}
		out[n.name] = metric{x, n.unit}
	}
	return out, summarizeKinds(spans), nil
}
