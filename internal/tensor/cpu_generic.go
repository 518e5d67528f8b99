//go:build !amd64

package tensor

// No x86 feature probing off amd64: the flags stay false, so CPUFeatures
// reports "baseline" and the portable kernel runs.
var cpuHasSSE42, cpuHasAVX, cpuHasAVX2, cpuHasFMA bool
