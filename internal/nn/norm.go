package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNorm normalizes activations per feature (rank-2 input [batch, feat])
// or per channel (rank-4 input [batch, C, H, W]), with learnable scale/shift
// and running statistics for inference.
type BatchNorm struct {
	Feat     int
	Eps      float32
	Momentum float32 // running-stat update rate, e.g. 0.1

	Gamma *Param // [feat]
	Beta  *Param // [feat]

	RunMean *tensor.Tensor // [feat] running mean (not trained)
	RunVar  *tensor.Tensor // [feat] running variance

	// caches for backward
	xhat    *tensor.Tensor
	invStd  []float32
	shape   []int
	perFeat int // elements per feature per batch (batch*H*W for conv)
}

// NewBatchNorm creates a batch normalization layer over feat features or
// channels.
func NewBatchNorm(feat int) *BatchNorm {
	bn := &BatchNorm{
		Feat:     feat,
		Eps:      1e-5,
		Momentum: 0.1,
		Gamma:    NewParam("bn.gamma", feat),
		Beta:     NewParam("bn.beta", feat),
		RunMean:  tensor.New(feat),
		RunVar:   tensor.New(feat),
	}
	bn.Gamma.W.Fill(1)
	bn.RunVar.Fill(1)
	return bn
}

// geometry returns the iteration shape of x: batch rows, each holding Feat
// contiguous runs of spatial elements (spatial = 1 for rank-2 input,
// H·W for rank-4 NCHW input).
func (bn *BatchNorm) geometry(x *tensor.Tensor) (batch, spatial int) {
	switch x.Rank() {
	case 2:
		return x.Dim(0), 1
	case 4:
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	default:
		panic("nn: BatchNorm expects rank-2 or rank-4 input")
	}
}

// Forward normalizes with batch statistics (training) or running statistics
// (inference). Every loop walks the input in memory order — batch row, then
// feature, then the feature's contiguous spatial run — so each feature's
// float64 sums accumulate in ascending element order.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, spatial := bn.geometry(x)
	n := batch * spatial
	feat := bn.Feat
	if x.Dim(1) != feat {
		panic(fmt.Sprintf("nn: BatchNorm over %d features got input %v", feat, x.Shape()))
	}
	bn.shape = x.Shape()
	y := tensor.New(bn.shape...)
	if len(bn.invStd) != feat {
		bn.invStd = make([]float32, feat)
	}

	mean := make([]float64, feat)
	variance := make([]float64, feat)
	if train {
		for b := 0; b < batch; b++ {
			for f := 0; f < feat; f++ {
				o := (b*feat + f) * spatial
				sum := mean[f]
				for _, v := range x.Data[o : o+spatial] {
					sum += float64(v)
				}
				mean[f] = sum
			}
		}
		for f := range mean {
			mean[f] /= float64(n)
		}
		for b := 0; b < batch; b++ {
			for f := 0; f < feat; f++ {
				o := (b*feat + f) * spatial
				m, sum := mean[f], variance[f]
				for _, v := range x.Data[o : o+spatial] {
					d := float64(v) - m
					sum += d * d
				}
				variance[f] = sum
			}
		}
		for f := range variance {
			variance[f] /= float64(n)
		}
		for f := 0; f < feat; f++ {
			bn.RunMean.Data[f] = (1-bn.Momentum)*bn.RunMean.Data[f] + bn.Momentum*float32(mean[f])
			bn.RunVar.Data[f] = (1-bn.Momentum)*bn.RunVar.Data[f] + bn.Momentum*float32(variance[f])
		}
	} else {
		for f := 0; f < feat; f++ {
			mean[f] = float64(bn.RunMean.Data[f])
			variance[f] = float64(bn.RunVar.Data[f])
		}
	}
	for f := 0; f < feat; f++ {
		bn.invStd[f] = float32(1 / math.Sqrt(variance[f]+float64(bn.Eps)))
	}
	bn.xhat = tensor.New(bn.shape...)
	for b := 0; b < batch; b++ {
		for f := 0; f < feat; f++ {
			o := (b*feat + f) * spatial
			m, inv := float32(mean[f]), bn.invStd[f]
			gamma, beta := bn.Gamma.W.Data[f], bn.Beta.W.Data[f]
			xs := x.Data[o : o+spatial]
			xh := bn.xhat.Data[o : o+spatial]
			ys := y.Data[o : o+spatial]
			for i, v := range xs {
				h := (v - m) * inv
				xh[i] = h
				ys[i] = gamma*h + beta
			}
		}
	}
	bn.perFeat = n
	return y
}

// Backward implements the standard batchnorm gradient, walking grad in the
// same memory order as Forward.
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch, spatial := bn.geometry(grad)
	feat := bn.Feat
	n := float32(bn.perFeat)
	dgamma := make([]float64, feat)
	dbeta := make([]float64, feat)
	for b := 0; b < batch; b++ {
		for f := 0; f < feat; f++ {
			o := (b*feat + f) * spatial
			xh := bn.xhat.Data[o : o+spatial]
			dg, db := dgamma[f], dbeta[f]
			for i, g := range grad.Data[o : o+spatial] {
				dg += float64(g) * float64(xh[i])
				db += float64(g)
			}
			dgamma[f], dbeta[f] = dg, db
		}
	}
	for f := 0; f < feat; f++ {
		bn.Gamma.G.Data[f] += float32(dgamma[f])
		bn.Beta.G.Data[f] += float32(dbeta[f])
	}
	dx := tensor.New(bn.shape...)
	for b := 0; b < batch; b++ {
		for f := 0; f < feat; f++ {
			o := (b*feat + f) * spatial
			// dx = gamma*invStd/n * (n*g - dbeta - xhat*dgamma)
			k := bn.Gamma.W.Data[f] * bn.invStd[f] / n
			db, dg := float32(dbeta[f]), float32(dgamma[f])
			xh := bn.xhat.Data[o : o+spatial]
			ds := dx.Data[o : o+spatial]
			for i, g := range grad.Data[o : o+spatial] {
				ds[i] = k * (n*g - db - xh[i]*dg)
			}
		}
	}
	return dx
}

// Params returns gamma and beta. Running statistics are state, not
// parameters; they are transferred by the serialization helpers instead.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Cost reports ~4 FLOPs per element.
func (bn *BatchNorm) Cost(inElems int) (int, int) { return 4 * inElems, inElems }
