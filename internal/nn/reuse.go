package nn

import "repro/internal/tensor"

// Layers keep one output tensor and one input-gradient tensor alive across
// steps instead of allocating fresh ones per call, so steady-state training
// does no hot-path allocation. The ownership contract (see docs/PERF.md): a
// layer's Forward/Backward result is valid only until that layer's next
// Forward/Backward; callers that hold results longer must Clone them.
//
// When the shape changes — routed module sub-batches change size on every
// step — the backing array is still reused whenever its capacity suffices:
// the result is a fresh tensor header over a prefix of the old data, so the
// shape slice of a tensor already handed out (which BatchNorm, the pools,
// Flatten and ModuleLayer keep) never changes under its holder. Only the
// contents are stale; every caller overwrites or zeroes its result, as the
// equal-shape case already requires.
//
// The helpers are monomorphic (reuse2/reuse4) rather than variadic so the
// hit path does not allocate a shape slice.

// reuse2 returns t when it already has shape [d0, d1], else a [d0, d1]
// tensor over t's backing array when it is large enough, else a fresh one.
func reuse2(t *tensor.Tensor, d0, d1 int) *tensor.Tensor {
	if t != nil && t.Rank() == 2 && t.Dim(0) == d0 && t.Dim(1) == d1 {
		return t
	}
	if n := d0 * d1; t != nil && cap(t.Data) >= n {
		return tensor.FromSlice(t.Data[:n], d0, d1)
	}
	return tensor.New(d0, d1)
}

// reuse4 returns t when it already has shape [d0, d1, d2, d3], else a tensor
// of that shape over t's backing array when it is large enough, else a
// fresh one.
func reuse4(t *tensor.Tensor, d0, d1, d2, d3 int) *tensor.Tensor {
	if t != nil && t.Rank() == 4 &&
		t.Dim(0) == d0 && t.Dim(1) == d1 && t.Dim(2) == d2 && t.Dim(3) == d3 {
		return t
	}
	if n := d0 * d1 * d2 * d3; t != nil && cap(t.Data) >= n {
		return tensor.FromSlice(t.Data[:n], d0, d1, d2, d3)
	}
	return tensor.New(d0, d1, d2, d3)
}
