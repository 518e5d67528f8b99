package tensor

import "fmt"

// Implicit-GEMM convolution. The im2col lowering (conv.go) turns Conv2D into
// C[oc, (oy,ox)] = W[oc, :] · col[:, (oy,ox)] — but the column matrix `col`
// is pure data movement: every element is a pixel of the input image (or a
// padding zero) addressed by (channel, ky, kx, oy, ox). The packed GEMM
// (pack.go) never reads its B operand directly either — it reads the packed
// B panels. So the column matrix exists only to be repacked, and ConvGemm /
// ConvGemmBack delete it: their pack routines walk the (channel, ky, kx,
// oy, ox) coordinate space and gather pixels into the panel layout from a
// zero-padded copy of the image (packBConvPadded), in which every tap of
// every output pixel is in range — so each gather is a branch-free load at
// a fixed offset, and a padding tap reads one of the copy's zeros.
//
// Bitwise contract: the panels packBConv/packBConvT produce are element-for-
// element identical to packB(im2col(src)) — same layout, same zero padding —
// and the panels then flow through the same runPacked band grid and the same
// full-k ascending-p summation chains. The input-gradient fold
// (Col2ImPadded) adds into each image element in Col2Im's order. The
// implicit path is therefore bitwise identical to the retained Im2Col +
// Gemm + Col2Im reference (ConvGemmRef / ConvGemmBackRef below), which
// stays as the differential-test oracle the way GemmNaive anchors the
// packed GEMM. The implicit_test.go suite pins this for every
// stride/pad/kernel shape the experiments use plus fuzzed shapes.
//
// What this buys (docs/PERF.md § Implicit GEMM): the forward column matrix
// (batch·kdim·cols floats — the largest scratch-arena consumer) is never
// materialized, written, or re-read; the backward weight-gradient GEMM
// re-gathers from the live input image instead of a cached column matrix, so
// the conv layer retains no scratch between steps at all.

// ConvGeom describes one convolution lowering: an input image of
// [Channels, Height, Width] swept by a KH×KW kernel at the given stride and
// zero padding.
type ConvGeom struct {
	Channels, Height, Width int
	KH, KW                  int
	Stride, Pad             int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.Height+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.Width+2*g.Pad-g.KW)/g.Stride + 1 }

// Kdim returns the contraction extent Channels·KH·KW (rows of the virtual
// column matrix).
func (g ConvGeom) Kdim() int { return g.Channels * g.KH * g.KW }

// Cols returns OutH·OutW (columns of the virtual column matrix).
func (g ConvGeom) Cols() int { return g.OutH() * g.OutW() }

// checkConvOperands validates operand extents with shape-carrying messages,
// mirroring checkGemmOperands: a short operand must die loudly at the entry
// point, not as an index panic inside a pack routine. Operands a caller does
// not supply at its entry point (the pack-only and gather-only paths) are
// passed as nil and skipped.
func checkConvOperands(fn string, g ConvGeom, outC int, w, src, out []float32, outLen int, outName string) {
	if g.Stride < 1 || g.KH < 1 || g.KW < 1 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: %s invalid geometry %+v", fn, g))
	}
	if img := g.Channels * g.Height * g.Width; src != nil && len(src) < img {
		panic(fmt.Sprintf("tensor: %s image too short: len=%d, need channels*h*w=%d*%d*%d=%d",
			fn, len(src), g.Channels, g.Height, g.Width, img))
	}
	if wn := outC * g.Kdim(); w != nil && len(w) < wn {
		panic(fmt.Sprintf("tensor: %s weight too short: len=%d, need outC*kdim=%d*%d=%d",
			fn, len(w), outC, g.Kdim(), wn))
	}
	if out != nil && len(out) < outLen {
		panic(fmt.Sprintf("tensor: %s %s too short: len=%d, need %d", fn, outName, len(out), outLen))
	}
}

// PaddedLen returns the element count of the zero-padded image
// [Channels][Height+2·Pad][Width+2·Pad] the gathers read from, or 0 when
// Pad == 0 and the image is its own padded form.
func (g ConvGeom) PaddedLen() int {
	if g.Pad == 0 {
		return 0
	}
	return g.Channels * (g.Height + 2*g.Pad) * (g.Width + 2*g.Pad)
}

// packBConvPadded returns the zero-padded form of src, written into pad
// (PaddedLen elements), or src itself when g.Pad == 0. Every kernel tap of
// every output pixel lands inside the padded image, so the gathers below
// index it without clamping or zero-fill branches: a padding tap reads one
// of the zeros written here.
func packBConvPadded(src []float32, g ConvGeom, pad []float32) []float32 {
	if g.Pad == 0 {
		return src[:g.Channels*g.Height*g.Width]
	}
	p, h, w := g.Pad, g.Height, g.Width
	wp := w + 2*p
	plane := (h + 2*p) * wp
	pad = pad[:g.Channels*plane]
	for c := 0; c < g.Channels; c++ {
		dp := pad[c*plane : (c+1)*plane]
		sp := src[c*h*w : (c+1)*h*w]
		clear(dp[:p*wp+p])
		for y := 0; y < h; y++ {
			row := dp[(y+p)*wp+p:]
			copy(row[:w], sp[y*w:(y+1)*w])
			clear(row[w : w+2*p])
		}
		clear(dp[(h+p)*wp+p:])
	}
	return pad
}

// packBConv packs the virtual column matrix (kdim × cols, never built) into
// nr-column B panels: element (p, j) of the panel layout — exactly where
// packB(transB=false) would have put col[p][j] — is the pixel the im2col row
// p = (channel, ky, kx) and column j = (oy, ox) address, read from the
// padded image pad (packBConvPadded), where a padding tap reads a zero.
// Column j reads pad[q(p) + off(j)] with q = (channel·Hp + ky)·Wp + kx and
// off = oy·stride·Wp + ox·stride, so a panel computes its nr column offsets
// once and each panel row is nr fixed-offset loads — one array move when
// the panel is a stride-1 run inside one output row. The loads are unrolled
// and stored element by element here and in packBConvT: a rolled loop, a
// helper call, or a composite literal (which goes through a stack
// temporary) each cost a third again at the 8×8 training shapes. dst must
// hold ceil(cols/nr)·nr·kdim elements.
func packBConv(pad []float32, g ConvGeom, dst []float32) {
	outW := g.OutW()
	cols := g.OutH() * outW
	kdim := g.Kdim()
	wp := g.Width + 2*g.Pad
	plane := (g.Height + 2*g.Pad) * wp
	var off [nr]int
	for j0 := 0; j0 < cols; j0 += nr {
		w8 := min(cols-j0, nr)
		for cc := range off {
			// Columns past w8 repeat the last real offset; the edge clear
			// below overwrites what they gather.
			j := j0 + min(cc, w8-1)
			oy := j / outW
			off[cc] = (oy*wp + j - oy*outW) * g.Stride
		}
		// Offsets rise strictly across a full panel, so a span of nr−1
		// means nr adjacent pixels: a stride-1 run inside one output row.
		run := w8 == nr && off[nr-1]-off[0] == nr-1
		dstPanel := dst[j0*kdim : j0*kdim+kdim*nr]
		ri := 0
		for c := 0; c < g.Channels; c++ {
			for ky := 0; ky < g.KH; ky++ {
				row := pad[c*plane+ky*wp:]
				for kx := 0; kx < g.KW; kx++ {
					dp := (*[nr]float32)(dstPanel[ri : ri+nr])
					ri += nr
					s := row[kx:]
					if run {
						// Through a value: a direct slice-to-array move
						// cannot rule out overlap and calls memmove.
						v := *(*[nr]float32)(s[off[0] : off[0]+nr])
						*dp = v
						continue
					}
					dp[0], dp[1], dp[2], dp[3] = s[off[0]], s[off[1]], s[off[2]], s[off[3]]
					dp[4], dp[5], dp[6], dp[7] = s[off[4]], s[off[5]], s[off[6]], s[off[7]]
					if w8 < nr {
						clear(dp[w8:])
					}
				}
			}
		}
	}
}

// packBConvT packs the transpose view of the virtual column matrix — op(B) =
// colᵀ (cols × kdim), the B operand of the backward weight-gradient GEMM —
// into nr-column panels, identical to packB(col, transB=true). Panels run
// over the kdim dimension; within a panel column c = im2col row (channel,
// ky, kx), the k steps walk the output pixels in ascending (oy, ox). A
// panel computes the padded-image offsets of its nr (channel, ky, kx) taps
// once, and each k step is then one contiguous nr-wide row gathered at
// fixed offsets from the pixel's window in pad (packBConvPadded). dst must
// hold ceil(kdim/nr)·nr·cols elements.
func packBConvT(pad []float32, g ConvGeom, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	kdim := g.Kdim()
	khkw := g.KH * g.KW
	wp := g.Width + 2*g.Pad
	plane := (g.Height + 2*g.Pad) * wp
	var q [nr]int
	for j0 := 0; j0 < kdim; j0 += nr {
		w8 := min(kdim-j0, nr)
		for c := range q {
			// Columns past w8 repeat the last real tap; the edge clear
			// below overwrites what they gather.
			kd := j0 + min(c, w8-1)
			ch := kd / khkw
			rem := kd - ch*khkw
			ky := rem / g.KW
			q[c] = ch*plane + ky*wp + rem - ky*g.KW
		}
		panel := dst[j0*cols : j0*cols+cols*nr]
		i := 0
		for oy := 0; oy < outH; oy++ {
			o := oy * g.Stride * wp
			for ox := 0; ox < outW; ox++ {
				s := pad[o:]
				o += g.Stride
				dp := (*[nr]float32)(panel[i : i+nr])
				i += nr
				dp[0], dp[1], dp[2], dp[3] = s[q[0]], s[q[1]], s[q[2]], s[q[3]]
				dp[4], dp[5], dp[6], dp[7] = s[q[4]], s[q[5]], s[q[6]], s[q[7]]
				if w8 < nr {
					clear(dp[w8:])
				}
			}
		}
	}
}

// Col2ImPadded is Col2Im over the padded image: it folds a column-matrix
// gradient (shape [kdim, outH·outW]) into the image gradient dst (shape
// [channels, height, width], overwritten). The fold accumulates into pad
// (PaddedLen elements, zeroed here) visiting rows and pixels in exactly
// Col2Im's order, so every image element receives the same additions in the
// same order starting from zero; taps that land in the padding are added
// and thrown away instead of being range-checked out. The interior is then
// copied to dst. With g.Pad == 0 every tap is in range, so the fold runs on
// dst directly and pad is unused.
func Col2ImPadded(cols []float32, g ConvGeom, pad, dst []float32) {
	h, w, p, stride := g.Height, g.Width, g.Pad, g.Stride
	dst = dst[:g.Channels*h*w]
	acc := dst
	if p > 0 {
		acc = pad[:g.PaddedLen()]
	}
	clear(acc)
	outH, outW := g.OutH(), g.OutW()
	nc := outH * outW
	wp := w + 2*p
	plane := (h + 2*p) * wp
	row := 0
	for c := 0; c < g.Channels; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				crow := cols[row*nc : row*nc+nc]
				base := c*plane + ky*wp + kx
				for oy := 0; oy < outH; oy++ {
					d := acc[base+oy*stride*wp:]
					cr := crow[oy*outW : oy*outW+outW]
					if stride == 1 {
						d = d[:len(cr)]
						for j, v := range cr {
							d[j] += v
						}
					} else {
						for j, v := range cr {
							d[j*stride] += v
						}
					}
				}
				row++
			}
		}
	}
	if p == 0 {
		return
	}
	for c := 0; c < g.Channels; c++ {
		for y := 0; y < h; y++ {
			copy(dst[(c*h+y)*w:(c*h+y+1)*w], acc[c*plane+(y+p)*wp+p:])
		}
	}
}

// ConvWeights holds the weight matrix prepacked into GEMM panels, so a batch
// loop packs W once instead of once per sample — the panels are read-only
// during the sweep and safe to share across parallel per-sample GEMMs. The
// forward and backward directions need different pack layouts (op(A) = W for
// the forward product, op(A) = Wᵀ for the input-gradient product), so each is
// packed on demand by PackFwd/PackBwd and released with Release; the zero
// value is ready to use and holds no scratch.
type ConvWeights struct {
	g    ConvGeom
	outC int
	fwd  *Scratch // packA(w, outC, kdim, false) panels
	bwd  *Scratch // packA(w, kdim, outC, true) panels
}

// PackFwd packs W (outC × kdim, row-major) for forward convolutions over
// geometry g. Any previously packed panels are released first.
func (cw *ConvWeights) PackFwd(w []float32, outC int, g ConvGeom) {
	cw.Release()
	kdim := g.Kdim()
	checkConvOperands("PackFwd", g, outC, w, nil, nil, 0, "")
	cw.g, cw.outC = g, outC
	mTiles := (outC + mr - 1) / mr
	cw.fwd = GetScratch(mTiles * mr * kdim)
	packA(w, outC, kdim, false, cw.fwd.Data)
}

// PackBwd packs Wᵀ for backward convolutions over geometry g.
func (cw *ConvWeights) PackBwd(w []float32, outC int, g ConvGeom) {
	cw.Release()
	kdim := g.Kdim()
	checkConvOperands("PackBwd", g, outC, w, nil, nil, 0, "")
	cw.g, cw.outC = g, outC
	mTiles := (kdim + mr - 1) / mr
	cw.bwd = GetScratch(mTiles * mr * outC)
	packA(w, kdim, outC, true, cw.bwd.Data)
}

// Release returns the packed panels to the arena. Safe on the zero value and
// after a previous Release.
func (cw *ConvWeights) Release() {
	PutScratch(cw.fwd)
	PutScratch(cw.bwd)
	cw.fwd, cw.bwd = nil, nil
}

// Conv computes the forward GEMM out = W · im2col(src) without materializing
// the column matrix: the B panels are gathered by packBConv from the
// zero-padded image (held beside them in the same arena block; with
// Pad == 0 the image is read in place) and swept with the prepacked W
// panels exactly as a packed
// Gemm(false, false, outC, cols, kdim, 1, w, col, 0, out) would. out is fully
// overwritten (beta = 0); the caller adds bias. Bitwise identical to
// ConvGemmRef for every geometry, worker count, and nesting depth.
func (cw *ConvWeights) Conv(src, out []float32) {
	g, outC := cw.g, cw.outC
	kdim, cols := g.Kdim(), g.Cols()
	if cw.fwd == nil {
		panic("tensor: ConvWeights.Conv without PackFwd")
	}
	checkConvOperands("Conv", g, outC, nil, src, out, outC*cols, "output")
	convImplicitCount.Inc()
	nTiles := (cols + nr - 1) / nr
	panelLen := nTiles * nr * kdim
	s := GetScratch(panelLen + g.PaddedLen())
	pb := s.Data[:panelLen]
	packBConv(packBConvPadded(src, g, s.Data[panelLen:]), g, pb)
	runPacked(cw.fwd.Data, pb, out, outC, cols, kdim, 0)
	PutScratch(s)
}

// ConvBack runs the convolution backward for one sample:
//
//	dw += grad · im2col(src)ᵀ   (weight gradient, accumulated)
//	dx  = col2im(Wᵀ · grad)     (input gradient, overwritten)
//
// The weight-gradient GEMM is implicit: its B panels (the transposed column
// matrix) are gathered from the padded image by packBConvT, and beta = 1
// with a transposed B is kernel mode 1 — the same dot-order summation the reference
// Gemm(false, true, …, 1, dw) used, so dw stays bitwise identical. The
// input-gradient GEMM reuses the prepacked Wᵀ panels with grad packed as B —
// panel-for-panel what the reference Gemm(true, false, …) packs — and its
// column gradient still materializes, in arena scratch scoped to this call
// (its accumulation order into dx is the bits of dx; fusing the col2im fold
// into the tile sweep would reorder it — see docs/PERF.md). Col2ImPadded
// folds it in Col2Im's order through the padded-image buffer, which the
// gather no longer needs by then.
func (cw *ConvWeights) ConvBack(src, grad, dw, dx []float32) {
	g, outC := cw.g, cw.outC
	kdim, cols := g.Kdim(), g.Cols()
	if cw.bwd == nil {
		panic("tensor: ConvWeights.ConvBack without PackBwd")
	}
	checkConvOperands("ConvBack", g, outC, nil, src, dw, outC*kdim, "dw")
	if len(grad) < outC*cols {
		panic(fmt.Sprintf("tensor: ConvBack grad too short: len=%d, need outC*cols=%d*%d=%d",
			len(grad), outC, cols, outC*cols))
	}
	img := g.Channels * g.Height * g.Width
	if len(dx) < img {
		panic(fmt.Sprintf("tensor: ConvBack dx too short: len=%d, need %d", len(dx), img))
	}
	convImplicitCount.Inc()

	// One arena block serves both GEMMs — an A region and a B region — so a
	// sample's backward is a single pool round-trip. The A region is sized
	// for whichever is larger: the packed grad A panels of the dW product or
	// the packed grad B panels of the dcol product (the two layouts differ,
	// so the pack runs twice); the B region holds the packBConvT panels and
	// is then recycled as the column gradient (nTiles·nr ≥ kdim, and
	// runPacked fully overwrites it with beta = 0 before the fold reads it);
	// a third region holds the padded image for packBConvT and then the
	// padded fold accumulator.
	mTiles := (outC + mr - 1) / mr
	nTiles := (kdim + nr - 1) / nr
	gTiles := (cols + nr - 1) / nr
	aLen := mTiles * mr * cols
	if gLen := gTiles * nr * outC; gLen > aLen {
		aLen = gLen
	}
	bLen := nTiles * nr * cols
	s := GetScratch(aLen + bLen + g.PaddedLen())
	sa := s.Data[:aLen]
	sb := s.Data[aLen : aLen+bLen]
	pad := s.Data[aLen+bLen:]
	packA(grad, outC, cols, false, sa)
	packBConvT(packBConvPadded(src, g, pad), g, sb)
	runPacked(sa, sb, dw, outC, kdim, cols, 1)

	packB(grad, outC, cols, false, sa)
	dcol := sb[:kdim*cols]
	runPacked(cw.bwd.Data, sa, dcol, kdim, cols, outC, 0)
	Col2ImPadded(dcol, g, pad, dx)
	PutScratch(s)
}

// ConvGemm computes the convolution forward GEMM out = W · im2col(src) for a
// single call, packing W on the spot. Batch loops should use ConvWeights
// directly so W is packed once.
func ConvGemm(w []float32, outC int, src []float32, g ConvGeom, out []float32) {
	var cw ConvWeights
	cw.PackFwd(w, outC, g)
	cw.Conv(src, out)
	cw.Release()
}

// ConvGemmBack runs the single-call convolution backward (see
// ConvWeights.ConvBack), packing Wᵀ on the spot.
func ConvGemmBack(w []float32, outC int, src []float32, g ConvGeom, grad, dw, dx []float32) {
	var cw ConvWeights
	cw.PackBwd(w, outC, g)
	cw.ConvBack(src, grad, dw, dx)
	cw.Release()
}

// ConvGemmRef is the retained im2col reference forward — materialize the
// column matrix, run the dispatching Gemm — kept verbatim as the
// differential-test oracle and the nebula-bench baseline for the implicit
// path, the way GemmNaive anchors the packed GEMM.
func ConvGemmRef(w []float32, outC int, src []float32, g ConvGeom, out []float32) {
	kdim, cols := g.Kdim(), g.Cols()
	checkConvOperands("ConvGemmRef", g, outC, w, src, out, outC*cols, "output")
	convRefCount.Inc()
	col := GetScratch(kdim * cols)
	Im2Col(src, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, col.Data)
	Gemm(false, false, outC, cols, kdim, 1, w, col.Data, 0, out)
	PutScratch(col)
}

// ConvGemmBackRef is the im2col reference backward: the column matrix is
// rebuilt and both gradient products run through the dispatching Gemm with
// the exact call shapes the pre-implicit conv layer used.
func ConvGemmBackRef(w []float32, outC int, src []float32, g ConvGeom, grad, dw, dx []float32) {
	kdim, cols := g.Kdim(), g.Cols()
	checkConvOperands("ConvGemmBackRef", g, outC, w, src, dw, outC*kdim, "dw")
	convRefCount.Inc()
	col := GetScratch(kdim * cols)
	Im2Col(src, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, col.Data)
	Gemm(false, true, outC, kdim, cols, 1, grad, col.Data, 1, dw)
	dcol := GetScratch(kdim * cols)
	Gemm(true, false, kdim, cols, outC, 1, w, grad, 0, dcol.Data)
	img := g.Channels * g.Height * g.Width
	dx = dx[:img]
	for i := range dx {
		dx[i] = 0
	}
	Col2Im(dcol.Data, g.Channels, g.Height, g.Width, g.KH, g.KW, g.Stride, g.Pad, dx)
	PutScratch(dcol)
	PutScratch(col)
}
