package main

import (
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics, the same rule as numpy's default. xs is not
// modified. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevels are the percentiles tail reports may use, highest first.
var tailLevels = []float64{99.9, 99, 90, 75, 50}

// tail returns the highest percentile of tailLevels that still has at least
// ten samples beyond it, its value, and the sample count. A timing is only
// as good as the samples above its percentile: a p99 over 200 samples rests
// on two of them. With fewer than 20 samples no level qualifies and tail
// returns level 0.
func tail(xs []float64) (level, value float64, n int) {
	n = len(xs)
	for _, p := range tailLevels {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, safe from rounding
			return p, quantile(xs, p/100), n
		}
	}
	return 0, 0, n
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS counter at the current RSS, so the next peakRSSMB reading is the
// peak of what ran in between. Where the counter cannot be reset, peakRSSMB
// reports the peak since the process started.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see above
}

// peakRSSMB returns the peak resident set size in MiB since resetPeakRSS,
// or since the process started.
func peakRSSMB() float64 {
	if st, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(st), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goRuntime is a reading of the Go runtime's allocation and GC counters.
type goRuntime struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds of CPU spent on GC (runtime estimate)
	totalCPU   float64 // seconds of CPU available to the Go runtime
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoRuntime() goRuntime {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goRuntime{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a goRuntime) sub(b goRuntime) goRuntime {
	return goRuntime{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
