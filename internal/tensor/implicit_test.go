package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// convCase pins the implicit-GEMM forward and backward against the retained
// im2col oracles, bitwise, for one geometry. dw starts from shared random
// contents so the beta=1 accumulation ordering is covered, not just the
// product.
func convCase(t *testing.T, rng *rand.Rand, outC int, g ConvGeom) {
	t.Helper()
	if g.OutH() < 1 || g.OutW() < 1 {
		t.Fatalf("degenerate case: %+v has empty output", g)
	}
	img := g.Channels * g.Height * g.Width
	kdim, cols := g.Kdim(), g.Cols()

	w := make([]float32, outC*kdim)
	src := make([]float32, img)
	grad := make([]float32, outC*cols)
	dwBase := make([]float32, outC*kdim)
	fillRand(rng, w)
	fillRand(rng, src)
	fillRand(rng, grad)
	fillRand(rng, dwBase)

	outRef := make([]float32, outC*cols)
	outImp := make([]float32, outC*cols)
	ConvGemmRef(w, outC, src, g, outRef)
	ConvGemm(w, outC, src, g, outImp)
	for i := range outRef {
		if outRef[i] != outImp[i] {
			t.Fatalf("ConvGemm outC=%d %+v: out[%d]=%v, im2col ref %v", outC, g, i, outImp[i], outRef[i])
		}
	}

	dwRef := append([]float32(nil), dwBase...)
	dwImp := append([]float32(nil), dwBase...)
	dxRef := make([]float32, img)
	dxImp := make([]float32, img)
	ConvGemmBackRef(w, outC, src, g, grad, dwRef, dxRef)
	ConvGemmBack(w, outC, src, g, grad, dwImp, dxImp)
	for i := range dwRef {
		if dwRef[i] != dwImp[i] {
			t.Fatalf("ConvGemmBack outC=%d %+v: dw[%d]=%v, im2col ref %v", outC, g, i, dwImp[i], dwRef[i])
		}
	}
	for i := range dxRef {
		if dxRef[i] != dxImp[i] {
			t.Fatalf("ConvGemmBack outC=%d %+v: dx[%d]=%v, im2col ref %v", outC, g, i, dxImp[i], dxRef[i])
		}
	}
}

// TestConvGemmExperimentShapes covers every (kernel, stride, pad) combination
// the model zoo instantiates (models.go, modular/builders.go) at the spatial
// sizes the experiments run, plus the bench shapes.
func TestConvGemmExperimentShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type sc struct {
		inC, outC, h, w, kh, kw, stride, pad int
	}
	cases := []sc{
		// 3×3 stride-1 pad-1 trunk convs.
		{3, 16, 12, 12, 3, 3, 1, 1},
		{16, 32, 12, 12, 3, 3, 1, 1},
		{16, 16, 16, 16, 3, 3, 1, 1},
		{8, 16, 8, 8, 3, 3, 1, 1},
		// 3×3 stride-2 pad-1 downsampling convs.
		{16, 32, 12, 12, 3, 3, 2, 1},
		{32, 64, 6, 6, 3, 3, 2, 1},
		// 1×1 projections (stride 1 and the stride-2 shortcut).
		{16, 32, 12, 12, 1, 1, 1, 0},
		{32, 64, 12, 12, 1, 1, 2, 0},
		// Bench shape: gemm_conv_64x256x576 is outC=64, kdim=576=64·3·3,
		// cols=256=16·16.
		{64, 64, 16, 16, 3, 3, 1, 1},
		// The modular image10 geometries cnn-sync trains (8×8 images, stem
		// 16, stages 24 s1 and 32 s2, shrunk odd mid widths): stem, stage-1
		// module convs, stage-2 downsampling and 4×4 convs, and the 1×1
		// stride-2 bypass, which gathers the image in place (Pad 0).
		{3, 16, 8, 8, 3, 3, 1, 1},
		{16, 11, 8, 8, 3, 3, 1, 1},
		{11, 24, 8, 8, 3, 3, 1, 1},
		{24, 7, 8, 8, 3, 3, 2, 1},
		{7, 32, 4, 4, 3, 3, 1, 1},
		{24, 32, 8, 8, 1, 1, 2, 0},
	}
	for _, c := range cases {
		convCase(t, rng, c.outC, ConvGeom{
			Channels: c.inC, Height: c.h, Width: c.w,
			KH: c.kh, KW: c.kw, Stride: c.stride, Pad: c.pad,
		})
	}
}

// TestConvGemmFuzzShapes sweeps randomized geometries (fuzzConvGeom —
// including pad ≥ kernel, all-padding edge columns, and single-pixel
// outputs) against the im2col oracle.
func TestConvGemmFuzzShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	iters := 60
	if testing.Short() {
		iters = 12
	}
	for it := 0; it < iters; it++ {
		g, ok := fuzzConvGeom(rng)
		if !ok {
			continue
		}
		outC := 1 + rng.Intn(17)
		t.Run(fmt.Sprintf("it%d_c%d_%dx%d_k%dx%d_s%d_p%d_oc%d",
			it, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, outC),
			func(t *testing.T) { convCase(t, rng, outC, g) })
	}
}

// fuzzConvGeom draws one random geometry: rectangular images and kernels,
// strides 1..3, pads 0..3. ok is false when the output would be empty.
func fuzzConvGeom(rng *rand.Rand) (g ConvGeom, ok bool) {
	g = ConvGeom{
		Channels: 1 + rng.Intn(9),
		Height:   1 + rng.Intn(14),
		Width:    1 + rng.Intn(14),
		KH:       1 + rng.Intn(5),
		KW:       1 + rng.Intn(5),
		Stride:   1 + rng.Intn(3),
		Pad:      rng.Intn(4),
	}
	return g, g.Height+2*g.Pad >= g.KH && g.Width+2*g.Pad >= g.KW
}

// TestConvPackDifferential checks the padded-image gathers element by
// element against packing the materialized column matrix — packBConv
// against packB(Im2Col(src)), packBConvT against packB(Im2Col(src)ᵀ) — and
// the padded fold against Col2Im, independently of the GEMMs that consume
// them. Destinations start as NaN so an element the gather skips shows up.
// Geometries: the fuzz generator plus pinned edge cases (pad ≥ kernel,
// stride 3, single-pixel outputs, 1×1 kernels with and without padding).
func TestConvPackDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	geoms := []ConvGeom{
		{Channels: 2, Height: 3, Width: 4, KH: 1, KW: 2, Stride: 1, Pad: 3},
		{Channels: 3, Height: 7, Width: 5, KH: 3, KW: 3, Stride: 3, Pad: 1},
		{Channels: 2, Height: 3, Width: 3, KH: 3, KW: 3, Stride: 2, Pad: 0},
		{Channels: 1, Height: 1, Width: 1, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Channels: 5, Height: 6, Width: 6, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{Channels: 4, Height: 5, Width: 7, KH: 1, KW: 1, Stride: 2, Pad: 1},
		{Channels: 16, Height: 8, Width: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
	}
	iters := 80
	if testing.Short() {
		iters = 20
	}
	for len(geoms) < iters {
		if g, ok := fuzzConvGeom(rng); ok {
			geoms = append(geoms, g)
		}
	}
	nan := float32(math.NaN())
	poisoned := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = nan
		}
		return s
	}
	same := func(what string, g ConvGeom, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s %+v: [%d] = %v, want %v", what, g, i, got[i], want[i])
			}
		}
	}
	for _, g := range geoms {
		kdim, cols := g.Kdim(), g.Cols()
		img := g.Channels * g.Height * g.Width
		src := make([]float32, img)
		fillRand(rng, src)
		col := make([]float32, kdim*cols)
		Im2Col(src, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, col)
		pad := packBConvPadded(src, g, poisoned(g.PaddedLen()))

		fwdLen := (cols + nr - 1) / nr * nr * kdim
		want, got := make([]float32, fwdLen), poisoned(fwdLen)
		packB(col, kdim, cols, false, want)
		packBConv(pad, g, got)
		same("packBConv", g, got, want)

		bwdLen := (kdim + nr - 1) / nr * nr * cols
		want, got = make([]float32, bwdLen), poisoned(bwdLen)
		packB(col, cols, kdim, true, want)
		packBConvT(pad, g, got)
		same("packBConvT", g, got, want)

		dcol := make([]float32, kdim*cols)
		fillRand(rng, dcol)
		want, got = make([]float32, img), poisoned(img)
		Col2Im(dcol, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, want)
		Col2ImPadded(dcol, g, poisoned(g.PaddedLen()), got)
		same("Col2ImPadded", g, got, want)
	}
}

// TestConvGemmParallelInvariance pins that the implicit path's band-grid
// fan-out does not change bits: the per-element summation chains are complete
// within a tile, so serial and parallel sweeps must agree exactly.
func TestConvGemmParallelInvariance(t *testing.T) {
	g := ConvGeom{Channels: 16, Height: 16, Width: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	outC := 32
	rng := rand.New(rand.NewSource(11))
	w := make([]float32, outC*g.Kdim())
	src := make([]float32, g.Channels*g.Height*g.Width)
	grad := make([]float32, outC*g.Cols())
	fillRand(rng, w)
	fillRand(rng, src)
	fillRand(rng, grad)

	saved := Parallelism
	defer func() { Parallelism = saved }()

	Parallelism = 1
	outSerial := make([]float32, outC*g.Cols())
	dwSerial := make([]float32, outC*g.Kdim())
	dxSerial := make([]float32, len(src))
	ConvGemm(w, outC, src, g, outSerial)
	ConvGemmBack(w, outC, src, g, grad, dwSerial, dxSerial)

	for _, par := range []int{2, 3, 4, 8} {
		Parallelism = par
		out := make([]float32, outC*g.Cols())
		dw := make([]float32, outC*g.Kdim())
		dx := make([]float32, len(src))
		ConvGemm(w, outC, src, g, out)
		ConvGemmBack(w, outC, src, g, grad, dw, dx)
		for i := range outSerial {
			if out[i] != outSerial[i] {
				t.Fatalf("Parallelism=%d: out[%d]=%v, serial %v", par, i, out[i], outSerial[i])
			}
		}
		for i := range dwSerial {
			if dw[i] != dwSerial[i] {
				t.Fatalf("Parallelism=%d: dw[%d]=%v, serial %v", par, i, dw[i], dwSerial[i])
			}
		}
		for i := range dxSerial {
			if dx[i] != dxSerial[i] {
				t.Fatalf("Parallelism=%d: dx[%d]=%v, serial %v", par, i, dx[i], dxSerial[i])
			}
		}
	}
}

// TestConvGemmScratchAccounting pins the two arena claims the implicit path
// makes: it returns every byte it acquires, and its peak working set is
// strictly below the im2col reference's (which holds the column matrix live
// across its inner GEMM's own panel scratch).
func TestConvGemmScratchAccounting(t *testing.T) {
	g := ConvGeom{Channels: 16, Height: 16, Width: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	outC := 32
	rng := rand.New(rand.NewSource(5))
	w := make([]float32, outC*g.Kdim())
	src := make([]float32, g.Channels*g.Height*g.Width)
	out := make([]float32, outC*g.Cols())
	fillRand(rng, w)
	fillRand(rng, src)

	live := ScratchLiveBytes()
	ResetScratchPeak()
	ConvGemm(w, outC, src, g, out)
	implicitPeak := ScratchPeakBytes() - live
	if got := ScratchLiveBytes(); got != live {
		t.Errorf("ConvGemm leaked %d live scratch bytes", got-live)
	}

	ResetScratchPeak()
	ConvGemmRef(w, outC, src, g, out)
	refPeak := ScratchPeakBytes() - live
	if got := ScratchLiveBytes(); got != live {
		t.Errorf("ConvGemmRef leaked %d live scratch bytes", got-live)
	}

	if implicitPeak >= refPeak {
		t.Errorf("implicit peak scratch %d B not below im2col ref %d B", implicitPeak, refPeak)
	}
}

// TestConvGemmOperandChecks pins the shape-carrying panics at the entry
// points.
func TestConvGemmOperandChecks(t *testing.T) {
	g := ConvGeom{Channels: 2, Height: 4, Width: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	ok := make([]float32, 1024)
	short := make([]float32, 3)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on short operand", name)
			}
		}()
		fn()
	}
	mustPanic("short image", func() { ConvGemm(ok, 4, short, g, ok) })
	mustPanic("short weight", func() { ConvGemm(short, 4, ok, g, ok) })
	mustPanic("short output", func() { ConvGemm(ok, 4, ok, g, short) })
	mustPanic("short grad", func() { ConvGemmBack(ok, 4, ok, g, short, ok, ok) })
	mustPanic("short dx", func() { ConvGemmBack(ok, 4, ok, g, ok, ok, short) })
	mustPanic("bad stride", func() {
		bad := g
		bad.Stride = 0
		ConvGemm(ok, 4, ok, bad, ok)
	})
}
