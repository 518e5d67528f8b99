package tensor

import (
	"runtime"
	"strings"
)

// strictAVX selects the 256-bit strict kernel (gemm_avx_amd64.s) — the same
// single-rounded mul-then-add chain per C element as the SSE kernel, eight
// lanes wide, so the choice is invisible to every bitwise gate. Set once at
// package init (cpu_amd64.go) when the CPU and OS support AVX; never toggled
// afterwards.
var strictAVX bool

// CPUFeatures returns the detected SIMD feature set as a provenance string
// for bench reports, e.g. "sse4.2+avx2+fma"; "baseline" when none of the
// probed features are present (or off amd64).
func CPUFeatures() string {
	feats := make([]string, 0, 4)
	if cpuHasSSE42 {
		feats = append(feats, "sse4.2")
	}
	if cpuHasAVX {
		feats = append(feats, "avx")
	}
	if cpuHasAVX2 {
		feats = append(feats, "avx2")
	}
	if cpuHasFMA {
		feats = append(feats, "fma")
	}
	if len(feats) == 0 {
		return "baseline"
	}
	return strings.Join(feats, "+")
}

// KernelMode names the micro-kernel every GEMM runs, for bench provenance:
// "strict-avx", "strict-sse", or "strict-portable-<arch>".
func KernelMode() string {
	if strictAVX {
		return "strict-avx"
	}
	if haveAsmKernel {
		return "strict-sse"
	}
	return "strict-portable-" + runtime.GOARCH
}
