package edgenet

// Wire-format v2 (docs/PROTOCOL.md "Wire format v2"): sub-model parameter
// payloads travel as a compact header in the request/response envelope plus a
// stream of per-chunk quantized frames, instead of a whole []float32 (or
// []Quantized8) gob field. The codec is pure and deterministic — every
// rounding decision is a fixed rule, never platform- or schedule-dependent —
// so the simulation (internal/fed) and the real wire share it, and delta
// references stay bit-identical on both ends of a link.
//
// Three stacked reductions:
//
//   1. Per-chunk quantization: int8 affine codes (1 B/element + 8 B header
//      per chunk) by default, or float16 (2 B/element) when the caller wants
//      tighter error.
//   2. Delta encoding: when both peers hold the same reference version of a
//      device's sub-model, only the (small-range, hence finely quantized)
//      difference crosses the wire. Cache miss or version mismatch falls
//      back to a full payload — never an error.
//   3. Deterministic top-k sparsification (pushes): keep the fraction of
//      delta coordinates with the largest magnitude (ties broken by index,
//      −0 equal to +0, NaN above +Inf), ship them as per-chunk (offset,
//      code) pairs. Selection is a linear-time radix select (topKMask), not
//      a sort: the uplink encode must stay cheaper than the local training
//      it ships.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
)

// Protocol versions negotiated at Hello time.
const (
	// ProtoV1 is the original whole-tensor gob protocol.
	ProtoV1 = 1
	// ProtoV2 adds chunk-streamed, delta-encoded, quantized payloads.
	ProtoV2 = 2
)

// WireOpts configures the v2 payload codec.
type WireOpts struct {
	// Chunk is the elements-per-chunk granularity (0 = 1024). Each chunk
	// quantizes over its own range and travels as its own wire frame.
	Chunk int
	// F16 selects float16 codes (2 B/element, relative error ≤ 2⁻¹¹) instead
	// of the default int8 affine codes (1 B/element, error ≤ range/510).
	F16 bool
	// TopK in (0,1) keeps only that fraction of delta coordinates (largest
	// |value| first, index-ascending tie-break) on sparsifiable payloads.
	// 0 or ≥1 means dense. Only meaningful for delta payloads — a full
	// payload has no "unchanged" value for the dropped coordinates.
	TopK float64
}

func (o WireOpts) chunkSize() int {
	if o.Chunk <= 0 {
		return 1024
	}
	return o.Chunk
}

// WireHeader describes a v2 payload. It rides in the Request/Response
// envelope; the chunk frames follow as separate gob messages.
type WireHeader struct {
	// Delta marks the codes as differences against the BaseVer reference.
	Delta bool
	// BaseVer is the reference version a delta decodes against (0 for full).
	BaseVer uint64
	// Version is the reference version the decoded vector installs.
	Version uint64
	// Len is the total element count of the decoded vector.
	Len int
	// Chunks is the number of WireChunk frames that follow the envelope.
	Chunks int
}

// WireChunk is one frame of a v2 payload: a quantized slice of the vector,
// dense or sparse.
type WireChunk struct {
	// N is the dense element count this chunk reconstructs.
	N int
	// Sparse marks a top-k chunk: only the Idx offsets carry codes, the rest
	// decode as "unchanged". An explicit flag rather than Idx != nil because
	// gob drops empty slices in transit — a sparse chunk that kept zero
	// coordinates must not arrive looking dense.
	Sparse bool
	// Q8 holds int8 affine codes (dense: N codes; sparse: len(Idx) codes).
	Q8 *nn.Quantized8
	// F16 holds float16 codes when the payload was encoded with WireOpts.F16.
	F16 []uint16
	// Idx lists the in-chunk offsets the codes apply to (Sparse only).
	Idx []uint16
}

// wireBytes is the chunk's analytic wire size: what a compact binary framing
// would spend, and what the simulation charges. 4 B chunk header, 8 B
// quantization header + 1 B/code for int8, 2 B/code for float16, 2 B per
// sparse offset.
func (c *WireChunk) wireBytes() int64 {
	n := int64(4)
	if c.Q8 != nil {
		n += 8 + int64(len(c.Q8.Codes))
	}
	n += 2 * int64(len(c.F16))
	n += 2 * int64(len(c.Idx))
	return n
}

// WirePayload pairs a header with its chunk frames: the in-process form the
// simulation encodes/decodes directly, and the unit tests round-trip. Over
// the real wire the header travels in the envelope and each chunk is its own
// frame.
type WirePayload struct {
	Header WireHeader
	Chunks []WireChunk
}

// WireBytes is the analytic wire size of the whole payload (16 B header plus
// the chunk frames) — the simulation's byte charge for this transfer.
func (p *WirePayload) WireBytes() int64 {
	n := int64(16)
	for i := range p.Chunks {
		n += p.Chunks[i].wireBytes()
	}
	return n
}

// EncodeVec encodes vec as a v2 payload. A non-nil base of identical length
// produces a delta payload (the caller stamps Header.BaseVer/Version with
// its reference bookkeeping); base == nil produces a full payload. The
// encoding is deterministic: equal inputs yield equal payloads, always.
//
// The caller must hold base bit-identically on both peers (it is the
// reconstruction of the previous exchange, not the raw values); DecodeVec on
// the payload then reproduces one exact vector on both ends.
func EncodeVec(vec, base []float32, opts WireOpts) *WirePayload {
	work := vec
	delta := false
	if base != nil && len(base) == len(vec) {
		delta = true
		work = make([]float32, len(vec))
		for i := range vec {
			work[i] = vec[i] - base[i]
		}
	}
	chunk := opts.chunkSize()
	nChunks := (len(work) + chunk - 1) / chunk
	p := &WirePayload{
		Header: WireHeader{Delta: delta, Len: len(work), Chunks: nChunks},
		Chunks: make([]WireChunk, 0, nChunks),
	}

	var keep []bool
	if delta && opts.TopK > 0 && opts.TopK < 1 {
		keep = topKMask(work, opts.TopK)
	}
	for start := 0; start < len(work); start += chunk {
		end := start + chunk
		if end > len(work) {
			end = len(work)
		}
		p.Chunks = append(p.Chunks, encodeChunk(work[start:end], keepSlice(keep, start, end), opts.F16))
	}
	return p
}

// keepSlice returns the window of the sparsification mask (nil = dense).
func keepSlice(keep []bool, start, end int) []bool {
	if keep == nil {
		return nil
	}
	return keep[start:end]
}

// topKMask marks the ⌈frac·n⌉ coordinates with the largest |value|; ties
// break toward the lower index, so the mask is a pure function of the values.
//
// Selection runs in O(n) on the magnitude key math.Float32bits(v) &^ 1<<31:
// for non-negative floats the bit pattern orders exactly like the value, and
// clearing the sign maps −0 onto +0, so every NaN-free input gets the mask a
// stable sort by descending |value| would give. A NaN key is above +Inf's, so
// NaNs rank above every number (among themselves by bit pattern, then
// index). A most-significant-digit-first radix select finds the k-th largest
// key thr; the mask keeps every key > thr plus the lowest-indexed keys == thr
// that complete k. The histograms are 256 bins, small enough to stay on the
// stack.
func topKMask(vals []float32, frac float64) []bool {
	n := len(vals)
	k := int(frac*float64(n) + 0.999999)
	if k < 1 {
		k = 1
	}
	if k >= n {
		return nil // keep everything: dense is strictly cheaper
	}
	// need counts how many keys equal to the final prefix still belong to the
	// k largest; each pass fixes the next byte of the prefix.
	var prefix, fixed uint32
	need := k
	for shift := 24; shift >= 0; shift -= 8 {
		var hist [256]int
		for _, v := range vals {
			if key := magKey(v); key&fixed == prefix {
				hist[key>>shift&0xff]++
			}
		}
		b := 255
		for ; hist[b] < need; b-- {
			need -= hist[b]
		}
		prefix |= uint32(b) << shift
		fixed |= 0xff << shift
	}
	keep := make([]bool, n)
	for i, v := range vals {
		switch key := magKey(v); {
		case key > prefix:
			keep[i] = true
		case key == prefix && need > 0:
			keep[i] = true
			need--
		}
	}
	return keep
}

// magKey is |v|'s sort key: the IEEE-754 bits with the sign cleared.
func magKey(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// encodeChunk quantizes one window, dense or sparse.
func encodeChunk(vals []float32, keep []bool, f16 bool) WireChunk {
	c := WireChunk{N: len(vals)}
	enc := vals
	if keep != nil {
		c.Sparse = true
		kept := 0
		for _, k := range keep {
			if k {
				kept++
			}
		}
		c.Idx = make([]uint16, 0, kept)
		enc = make([]float32, 0, kept)
		for i, k := range keep {
			if k {
				c.Idx = append(c.Idx, uint16(i))
				enc = append(enc, vals[i])
			}
		}
	}
	if f16 {
		c.F16 = nn.QuantizeF16(enc)
	} else {
		q := nn.Quantize8(enc)
		c.Q8 = &q
	}
	return c
}

// errWire wraps malformed-payload conditions; the transport survives, the
// request fails.
var errWire = errors.New("edgenet: malformed wire payload")

// DecodeVec reconstructs the vector a payload encodes. For delta payloads
// base must be the reference the encoder used (same length, bit-identical
// content); full payloads ignore base. Every malformed condition — length
// mismatch, chunk count mismatch, negative sizes, out-of-range sparse offset
// — returns an error, never panics: payloads cross a network.
func DecodeVec(p *WirePayload, base []float32) ([]float32, error) {
	h := p.Header
	if len(p.Chunks) != h.Chunks {
		return nil, fmt.Errorf("%w: %d chunk frames, header says %d", errWire, len(p.Chunks), h.Chunks)
	}
	if h.Delta && len(base) != h.Len {
		return nil, fmt.Errorf("%w: delta of %d elements against reference of %d", errWire, h.Len, len(base))
	}
	// Check the framing before allocating: Len comes off the wire, so only
	// chunks that carry their codes (dense) or a reference to fall back on
	// (sparse, hence delta) may claim elements.
	total := 0
	for i := range p.Chunks {
		c := &p.Chunks[i]
		if c.N < 0 || c.N > h.Len-total {
			return nil, fmt.Errorf("%w: chunk of %d elements overruns header length %d", errWire, c.N, h.Len)
		}
		total += c.N
		switch {
		case c.Sparse && !h.Delta:
			return nil, fmt.Errorf("%w: sparse chunk in a full payload", errWire)
		case !c.Sparse && c.codes() != c.N:
			return nil, fmt.Errorf("%w: dense chunk carries %d codes for %d elements", errWire, c.codes(), c.N)
		}
	}
	if total != h.Len {
		return nil, fmt.Errorf("%w: chunks reconstruct %d of %d elements", errWire, total, h.Len)
	}
	out := make([]float32, 0, h.Len)
	for i := range p.Chunks {
		c := &p.Chunks[i]
		vals, err := decodeChunk(c)
		if err != nil {
			return nil, err
		}
		start := len(out)
		if !c.Sparse {
			if h.Delta {
				for j, v := range vals {
					out = append(out, base[start+j]+v)
				}
			} else {
				out = append(out, vals...)
			}
			continue
		}
		// Sparse: unchanged coordinates keep the reference value (delta 0).
		if len(vals) != len(c.Idx) {
			return nil, fmt.Errorf("%w: sparse chunk carries %d codes for %d offsets", errWire, len(vals), len(c.Idx))
		}
		out = append(out, base[start:start+c.N]...)
		win := out[start:]
		for j, off := range c.Idx {
			if int(off) >= c.N {
				return nil, fmt.Errorf("%w: sparse offset %d outside chunk of %d", errWire, off, c.N)
			}
			win[off] = base[start+int(off)] + vals[j]
		}
	}
	return out, nil
}

// codes is the number of quantized codes the chunk carries.
func (c *WireChunk) codes() int {
	n := len(c.F16)
	if c.Q8 != nil {
		n += len(c.Q8.Codes)
	}
	return n
}

// decodeChunk expands one chunk's codes.
func decodeChunk(c *WireChunk) ([]float32, error) {
	switch {
	case c.Q8 != nil && c.F16 != nil:
		return nil, fmt.Errorf("%w: chunk carries both int8 and float16 codes", errWire)
	case c.Q8 != nil:
		return c.Q8.Dequantize8(), nil
	case c.F16 != nil:
		return nn.DequantizeF16(c.F16), nil
	case c.N == 0, c.Sparse && len(c.Idx) == 0:
		// Nothing kept — gob strips the resulting empty code slices, so an
		// all-below-threshold sparse chunk legitimately arrives bare.
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: chunk carries no codes", errWire)
	}
}

// MappingEqual reports whether two per-layer active-module index sets are
// identical — the structural precondition for delta coding.
func MappingEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if len(a[l]) != len(b[l]) {
			return false
		}
		for i := range a[l] {
			if a[l][i] != b[l][i] {
				return false
			}
		}
	}
	return true
}

// WireRef is one peer's delta-coding reference for a device: the bit-exact
// reconstruction of the last v2 exchange, its version, and the sub-model
// structure it belongs to. The server keeps one per DeviceID; the client
// keeps its own. References are immutable once created — concurrent readers
// share them safely.
type WireRef struct {
	Version uint64
	Mapping [][]int
	Vec     []float32
}
