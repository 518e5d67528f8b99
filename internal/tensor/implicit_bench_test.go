package tensor

import (
	"math/rand"
	"testing"
)

// Implicit-vs-im2col benchmark pairs at the shapes nebula-bench reports.
// conv_step_b16_c16x32_12x12 is one sample of the Fig-9 training conv
// (16→32 channels, 12×12, 3×3 s1 p1); gemm_conv_64x256x576 is the
// 64-channel 16×16 trunk conv; c16x11_8x8 is a cnn-sync module conv (the
// 16-channel stem output into an 11-wide shrunk module, 8×8, 3×3 s1 p1),
// where each gathered element feeds only two micro-kernel row tiles.

func convBenchOperands(g ConvGeom, outC int) (w, src, out, grad, dw, dx []float32) {
	rng := rand.New(rand.NewSource(1))
	w = make([]float32, outC*g.Kdim())
	src = make([]float32, g.Channels*g.Height*g.Width)
	out = make([]float32, outC*g.Cols())
	grad = make([]float32, outC*g.Cols())
	dw = make([]float32, outC*g.Kdim())
	dx = make([]float32, len(src))
	fillRand(rng, w)
	fillRand(rng, src)
	fillRand(rng, grad)
	return
}

var convBenchGeoms = []struct {
	name string
	g    ConvGeom
	outC int
}{
	{"c16x32_12x12", ConvGeom{Channels: 16, Height: 12, Width: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}, 32},
	{"c64x64_16x16", ConvGeom{Channels: 64, Height: 16, Width: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 64},
	{"c16x11_8x8", ConvGeom{Channels: 16, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 11},
}

func BenchmarkConvGemmImplicit(b *testing.B) {
	for _, bc := range convBenchGeoms {
		b.Run(bc.name, func(b *testing.B) {
			w, src, out, _, _, _ := convBenchOperands(bc.g, bc.outC)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvGemm(w, bc.outC, src, bc.g, out)
			}
		})
	}
}

func BenchmarkConvGemmIm2col(b *testing.B) {
	for _, bc := range convBenchGeoms {
		b.Run(bc.name, func(b *testing.B) {
			w, src, out, _, _, _ := convBenchOperands(bc.g, bc.outC)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvGemmRef(w, bc.outC, src, bc.g, out)
			}
		})
	}
}

func BenchmarkConvGemmBackImplicit(b *testing.B) {
	for _, bc := range convBenchGeoms {
		b.Run(bc.name, func(b *testing.B) {
			w, src, _, grad, dw, dx := convBenchOperands(bc.g, bc.outC)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvGemmBack(w, bc.outC, src, bc.g, grad, dw, dx)
			}
		})
	}
}

func BenchmarkConvGemmBackIm2col(b *testing.B) {
	for _, bc := range convBenchGeoms {
		b.Run(bc.name, func(b *testing.B) {
			w, src, _, grad, dw, dx := convBenchOperands(bc.g, bc.outC)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ConvGemmBackRef(w, bc.outC, src, bc.g, grad, dw, dx)
			}
		})
	}
}
