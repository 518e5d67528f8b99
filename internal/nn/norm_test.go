package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// oracleBatchNorm is the closure-per-element BatchNorm that the per-channel
// loops in norm.go replaced, kept verbatim as the bitwise oracle: feature
// index (i/spatial)%c per element, float64 sums in ascending element order.
type oracleBatchNorm struct {
	bn      *BatchNorm
	xhat    *tensor.Tensor
	invStd  []float32
	shape   []int
	perFeat int
}

func (o *oracleBatchNorm) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bn := o.bn
	batch, spatial := bn.geometry(x)
	n := batch * spatial
	o.shape = x.Shape()
	y := x.Clone()
	if o.invStd == nil || len(o.invStd) != bn.Feat {
		o.invStd = make([]float32, bn.Feat)
	}
	mean := make([]float64, bn.Feat)
	variance := make([]float64, bn.Feat)
	if train {
		o.forEach(x, func(f int, v float32) { mean[f] += float64(v) })
		for f := range mean {
			mean[f] /= float64(n)
		}
		o.forEach(x, func(f int, v float32) {
			d := float64(v) - mean[f]
			variance[f] += d * d
		})
		for f := range variance {
			variance[f] /= float64(n)
		}
		for f := 0; f < bn.Feat; f++ {
			bn.RunMean.Data[f] = (1-bn.Momentum)*bn.RunMean.Data[f] + bn.Momentum*float32(mean[f])
			bn.RunVar.Data[f] = (1-bn.Momentum)*bn.RunVar.Data[f] + bn.Momentum*float32(variance[f])
		}
	} else {
		for f := 0; f < bn.Feat; f++ {
			mean[f] = float64(bn.RunMean.Data[f])
			variance[f] = float64(bn.RunVar.Data[f])
		}
	}
	for f := 0; f < bn.Feat; f++ {
		o.invStd[f] = float32(1 / math.Sqrt(variance[f]+float64(bn.Eps)))
	}
	o.xhat = tensor.New(x.Shape()...)
	o.mapEach(x, y, func(f int, v float32, i int) float32 {
		xh := (v - float32(mean[f])) * o.invStd[f]
		o.xhat.Data[i] = xh
		return bn.Gamma.W.Data[f]*xh + bn.Beta.W.Data[f]
	})
	o.perFeat = n
	return y
}

func (o *oracleBatchNorm) backward(grad *tensor.Tensor) *tensor.Tensor {
	bn := o.bn
	n := float32(o.perFeat)
	dgamma := make([]float64, bn.Feat)
	dbeta := make([]float64, bn.Feat)
	o.forEachIdx(grad, func(f int, g float32, i int) {
		dgamma[f] += float64(g) * float64(o.xhat.Data[i])
		dbeta[f] += float64(g)
	})
	for f := 0; f < bn.Feat; f++ {
		bn.Gamma.G.Data[f] += float32(dgamma[f])
		bn.Beta.G.Data[f] += float32(dbeta[f])
	}
	dx := tensor.New(o.shape...)
	o.forEachIdx(grad, func(f int, g float32, i int) {
		dx.Data[i] = bn.Gamma.W.Data[f] * o.invStd[f] / n *
			(n*g - float32(dbeta[f]) - o.xhat.Data[i]*float32(dgamma[f]))
	})
	return dx
}

func (o *oracleBatchNorm) forEach(x *tensor.Tensor, fn func(f int, v float32)) {
	o.forEachIdx(x, func(f int, v float32, _ int) { fn(f, v) })
}

func (o *oracleBatchNorm) forEachIdx(x *tensor.Tensor, fn func(f int, v float32, i int)) {
	if x.Rank() == 2 {
		feat := x.Dim(1)
		for i, v := range x.Data {
			fn(i%feat, v, i)
		}
		return
	}
	c, spatial := x.Dim(1), x.Dim(2)*x.Dim(3)
	for i, v := range x.Data {
		fn((i/spatial)%c, v, i)
	}
}

func (o *oracleBatchNorm) mapEach(src, dst *tensor.Tensor, fn func(f int, v float32, i int) float32) {
	if src.Rank() == 2 {
		feat := src.Dim(1)
		for i, v := range src.Data {
			dst.Data[i] = fn(i%feat, v, i)
		}
		return
	}
	c, spatial := src.Dim(1), src.Dim(2)*src.Dim(3)
	for i, v := range src.Data {
		dst.Data[i] = fn((i/spatial)%c, v, i)
	}
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestBatchNormMatchesClosureOracle pins the per-channel loops bitwise to
// the closure version: outputs, normalized activations, running statistics,
// parameter gradients and input gradients, for rank-2 and rank-4 input, in
// training and eval mode, across repeated steps and a repeated Backward (the
// deep-supervision pattern).
func TestBatchNormMatchesClosureOracle(t *testing.T) {
	for _, shape := range [][]int{{7, 5}, {1, 3}, {4, 6, 5, 3}, {3, 16, 8, 8}, {2, 3, 1, 1}} {
		t.Run(fmt.Sprint(shape), func(t *testing.T) {
			feat := shape[1]
			rng := tensor.NewRNG(int64(len(shape)*100 + feat))
			got := NewBatchNorm(feat)
			rng.FillNormal(got.Gamma.W, 1, 0.5)
			rng.FillNormal(got.Beta.W, 0, 0.5)
			want := &oracleBatchNorm{bn: CloneLayer(got).(*BatchNorm)}
			for step := 0; step < 3; step++ {
				x := tensor.New(shape...)
				g := tensor.New(shape...)
				rng.FillNormal(x, float32(step), 2)
				rng.FillNormal(g, 0, 1)
				for _, train := range []bool{true, false} {
					tag := fmt.Sprintf("step %d train=%v", step, train)
					requireSameBits(t, tag+" y", got.Forward(x, train).Data, want.forward(x, train).Data)
					requireSameBits(t, tag+" xhat", got.xhat.Data, want.xhat.Data)
					requireSameBits(t, tag+" runMean", got.RunMean.Data, want.bn.RunMean.Data)
					requireSameBits(t, tag+" runVar", got.RunVar.Data, want.bn.RunVar.Data)
					for rep := 0; rep < 2; rep++ {
						rtag := fmt.Sprintf("%s backward %d", tag, rep)
						requireSameBits(t, rtag+" dx", got.Backward(g).Data, want.backward(g).Data)
						requireSameBits(t, rtag+" dgamma", got.Gamma.G.Data, want.bn.Gamma.G.Data)
						requireSameBits(t, rtag+" dbeta", got.Beta.G.Data, want.bn.Beta.G.Data)
					}
				}
			}
		})
	}
}
