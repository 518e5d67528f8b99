// Command nebula-bench runs the hot-kernel benchmarks and writes
// BENCH_kernels.json, the machine-readable performance trajectory the repo
// is held to from PR 3 onward. Each entry records ns/op, B/op and allocs/op;
// packed-GEMM entries additionally record the speedup over the retained
// naive reference (tensor.GemmNaive) measured in the same run, on the same
// machine. One row above the kernels, wire_encode_topk_8500, times the
// edgenet uplink codec.
//
// Usage:
//
//	go run ./cmd/nebula-bench            # writes BENCH_kernels.json
//	go run ./cmd/nebula-bench -out path  # writes elsewhere
//
// docs/PERF.md explains how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/edgenet"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Result is one benchmark row of BENCH_kernels.json.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// PeakScratchBytes is the high-water mark of live scratch-arena bytes
	// during the benchmark (tensor.ScratchPeakBytes): the working-set cost a
	// row imposes on the arena. The implicit-conv rows exist to show this
	// shrinking against their im2col counterparts, which still materialize
	// the column matrix.
	PeakScratchBytes int64 `json:"peak_scratch_bytes"`
	// SpeedupVsNaive is packed-kernel time ÷ naive-kernel time on the same
	// shape in the same run; 0 when the row has no naive counterpart.
	SpeedupVsNaive float64 `json:"speedup_vs_naive,omitempty"`
	// SpeedupVsIm2col is im2col-path time ÷ implicit-path time on the same
	// conv shape in the same run; 0 when the row has no im2col counterpart.
	SpeedupVsIm2col float64 `json:"speedup_vs_im2col,omitempty"`
}

// Report is the BENCH_kernels.json document.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUFeatures and KernelMode record the SIMD provenance of the numbers:
	// which instruction sets were detected and which micro-kernel the run
	// used (strict kernels are bitwise-pinned; fast-avx2 never appears here
	// because nebula-bench measures the artifact-producing configuration).
	CPUFeatures string   `json:"cpu_features"`
	KernelMode  string   `json:"kernel_mode"`
	Results     []Result `json:"results"`
}

// gemmBench returns a benchmark closure multiplying [m,k]·[k,n] through
// either the dispatching Gemm (packed for these shapes) or GemmNaive.
func gemmBench(m, n, k int, naive bool) func(b *testing.B) {
	return func(b *testing.B) {
		rng := tensor.NewRNG(1)
		a := tensor.New(m, k)
		bb := tensor.New(k, n)
		c := tensor.New(m, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(bb, 0, 1)
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
}

// denseStep benchmarks a steady-state Dense forward+backward pair.
func denseStep(b *testing.B) {
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

// convShape is one geometry of the implicit-vs-im2col pair rows. The two
// shapes bracket the repo's bench points: c16x32_12x12 is the Conv2D layer
// behind conv_step_b16_c16x32_12x12, and c64x64_16x16 is the convolution
// whose column matrix is the gemm_conv_64x256x576 shape (kdim 576, 256
// output pixels, 64 filters).
type convShape struct {
	name  string
	g     tensor.ConvGeom
	outC  int
	batch int
}

var convShapes = []convShape{
	{"b16_c16x32_12x12", tensor.ConvGeom{Channels: 16, Height: 12, Width: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32, 16},
	{"b16_c64x64_16x16", tensor.ConvGeom{Channels: 64, Height: 16, Width: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 64, 16},
}

// convOperands builds deterministic operands for one conv shape: a shared
// weight/grad set and per-sample images.
func convOperands(s convShape) (w, dw []float32, src, out, grad, dx [][]float32) {
	rng := tensor.NewRNG(5)
	g := s.g
	wt := tensor.New(s.outC, g.Kdim())
	rng.FillNormal(wt, 0, 1)
	w = wt.Data
	dw = make([]float32, s.outC*g.Kdim())
	for i := 0; i < s.batch; i++ {
		x := tensor.New(g.Channels, g.Height, g.Width)
		gr := tensor.New(s.outC, g.OutH(), g.OutW())
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(gr, 0, 1)
		src = append(src, x.Data)
		grad = append(grad, gr.Data)
		out = append(out, make([]float32, s.outC*g.Cols()))
		dx = append(dx, make([]float32, g.Channels*g.Height*g.Width))
	}
	return
}

// convImplicit benchmarks one batch of forward+backward through the
// implicit-GEMM path the nn.Conv2D layer uses: pack the weights once per
// batch, then gather each sample's image straight into packed panels.
func convImplicit(s convShape) func(b *testing.B) {
	return func(b *testing.B) {
		w, dw, src, out, grad, dx := convOperands(s)
		var cw tensor.ConvWeights
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cw.PackFwd(w, s.outC, s.g)
			for j := range src {
				cw.Conv(src[j], out[j])
			}
			cw.PackBwd(w, s.outC, s.g)
			for j := range src {
				cw.ConvBack(src[j], grad[j], dw, dx[j])
			}
			cw.Release()
		}
	}
}

// convIm2col benchmarks the same batch through the retained im2col
// reference (materialized column matrix + dispatching Gemm per sample).
func convIm2col(s convShape) func(b *testing.B) {
	return func(b *testing.B) {
		w, dw, src, out, grad, dx := convOperands(s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range src {
				tensor.ConvGemmRef(w, s.outC, src[j], s.g, out[j])
			}
			for j := range src {
				tensor.ConvGemmBackRef(w, s.outC, src[j], s.g, grad[j], dw, dx[j])
			}
		}
	}
}

// convStep benchmarks a steady-state Conv2D forward+backward pair.
func convStep(b *testing.B) {
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

// wireEncodeTopK benchmarks one uplink encode at the size of a typical
// mlp-dynamic push: an 8,500-coordinate delta payload, int8 codes, top-k
// sparsified to a quarter of the coordinates.
func wireEncodeTopK(b *testing.B) {
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
		wireSink = edgenet.EncodeVec(vec, base, opts)
	}
}

var wireSink *edgenet.WirePayload

// runBest reports the fastest of three runs of fn. Every row — and in
// particular both sides of every speedup ratio — is a min-of-reps
// estimate: on a shared machine a single sequential measurement folds
// whatever interference happened during it into the number, and a ratio of
// two such numbers is dominated by which side caught the noise burst. The
// minimum is the least-interference estimate of the code's actual cost.
func runBest(name string, fn func(b *testing.B)) Result {
	best := run(name, fn)
	for rep := 1; rep < 3; rep++ {
		if r := run(name, fn); r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	return best
}

func run(name string, fn func(b *testing.B)) Result {
	tensor.ResetScratchPeak()
	r := testing.Benchmark(fn)
	res := Result{
		Name:             name,
		NsPerOp:          float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:       r.AllocedBytesPerOp(),
		AllocsPerOp:      r.AllocsPerOp(),
		PeakScratchBytes: tensor.ScratchPeakBytes(),
	}
	fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %8d B/op %6d allocs/op %9d peak-scratch-B\n",
		name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.PeakScratchBytes)
	return res
}

func main() {
	out := flag.String("out", "BENCH_kernels.json", "output path for the kernel benchmark report")
	flag.Parse()

	// Packed/naive pairs on the two representative shapes: the square
	// 128×128×128 and the im2col shape of a 64-filter 3×3×64 conv over a
	// 16×16 plane.
	pairs := []struct {
		name    string
		m, n, k int
	}{
		{"gemm_128x128x128", 128, 128, 128},
		{"gemm_conv_64x256x576", 64, 256, 576},
	}
	var results []Result
	for _, p := range pairs {
		packed := runBest(p.name, gemmBench(p.m, p.n, p.k, false))
		naive := runBest(p.name+"_naive", gemmBench(p.m, p.n, p.k, true))
		if packed.NsPerOp > 0 {
			packed.SpeedupVsNaive = naive.NsPerOp / packed.NsPerOp
		}
		results = append(results, packed, naive)
	}
	// Implicit-GEMM conv against the retained im2col reference, forward +
	// backward over a 16-sample batch. The implicit rows carry the speedup
	// and — via peak_scratch_bytes — the working-set reduction from never
	// materializing the column matrix.
	for _, s := range convShapes {
		implicit := runBest("conv_implicit_"+s.name, convImplicit(s))
		im2col := runBest("conv_im2col_"+s.name, convIm2col(s))
		if implicit.NsPerOp > 0 {
			implicit.SpeedupVsIm2col = im2col.NsPerOp / implicit.NsPerOp
		}
		results = append(results, implicit, im2col)
	}
	results = append(results,
		runBest("dense_step_64x256x128", denseStep),
		runBest("conv_step_b16_c16x32_12x12", convStep),
		runBest("wire_encode_topk_8500", wireEncodeTopK),
	)

	rep := Report{
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUFeatures: tensor.CPUFeatures(),
		KernelMode:  tensor.KernelMode(),
		Results:     results,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nebula-bench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "nebula-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "nebula-bench: wrote %s\n", *out)
}
