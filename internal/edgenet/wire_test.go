package edgenet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randVec(rng *tensor.RNG, n int, scale float64) []float32 {
	vec := make([]float32, n)
	for i := range vec {
		vec[i] = float32(rng.NormFloat64() * scale)
	}
	return vec
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

// q8Bound is the worst per-element error a chunked int8 encoding of vals can
// introduce: half a step of the widest chunk range.
func q8Bound(vals []float32, chunk int) float64 {
	if chunk <= 0 {
		chunk = 1024
	}
	var worst float64
	for start := 0; start < len(vals); start += chunk {
		end := start + chunk
		if end > len(vals) {
			end = len(vals)
		}
		lo, hi := vals[start], vals[start]
		for _, v := range vals[start:end] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if b := float64(hi-lo) / 255 / 2; b > worst {
			worst = b
		}
	}
	return worst
}

func TestEncodeVecFullRoundTripBounded(t *testing.T) {
	rng := tensor.NewRNG(21)
	for _, n := range []int{1, 7, 1024, 1025, 5000} {
		vec := randVec(rng, n, 3)
		p := EncodeVec(vec, nil, WireOpts{})
		if p.Header.Delta || p.Header.Len != n {
			t.Fatalf("n=%d: bad header %+v", n, p.Header)
		}
		back, err := DecodeVec(p, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(back) != n {
			t.Fatalf("n=%d: decoded %d elements", n, len(back))
		}
		if d, bound := maxAbsDiff(vec, back), q8Bound(vec, 1024)+1e-6; d > bound {
			t.Fatalf("n=%d: error %v exceeds q8 bound %v", n, d, bound)
		}
		// Fixed framing overhead dominates tiny vectors; compression is only a
		// claim for realistically sized ones.
		if got := p.WireBytes(); n >= 64 && got >= int64(n)*4 {
			t.Fatalf("n=%d: payload %d bytes did not beat float32's %d", n, got, n*4)
		}
	}
}

func TestEncodeVecDeltaRoundTripBounded(t *testing.T) {
	rng := tensor.NewRNG(22)
	base := randVec(rng, 3000, 3)
	vec := make([]float32, len(base))
	for i := range base {
		vec[i] = base[i] + float32(rng.NormFloat64()*0.01) // small drift
	}
	p := EncodeVec(vec, base, WireOpts{})
	if !p.Header.Delta {
		t.Fatal("delta payload expected")
	}
	back, err := DecodeVec(p, base)
	if err != nil {
		t.Fatal(err)
	}
	// The delta's range is the drift's range, so the bound is far tighter
	// than full-payload quantization of vec itself.
	deltas := make([]float32, len(base))
	for i := range base {
		deltas[i] = vec[i] - base[i]
	}
	if d, bound := maxAbsDiff(vec, back), q8Bound(deltas, 1024)+1e-6; d > bound {
		t.Fatalf("delta error %v exceeds bound %v", d, bound)
	}
	// And strictly better than encoding vec without the reference.
	full, err := DecodeVec(EncodeVec(vec, nil, WireOpts{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(vec, back) >= maxAbsDiff(vec, full) {
		t.Fatalf("delta error %v not better than full %v", maxAbsDiff(vec, back), maxAbsDiff(vec, full))
	}
}

func TestEncodeVecTopKSparse(t *testing.T) {
	rng := tensor.NewRNG(23)
	base := randVec(rng, 2500, 2)
	vec := append([]float32(nil), base...)
	// Perturb a dispersed 10% of coordinates strongly, everything else barely.
	for i := range vec {
		if i%10 == 3 {
			vec[i] += float32(1 + rng.Float64())
		} else {
			vec[i] += float32(rng.NormFloat64() * 1e-4)
		}
	}
	p := EncodeVec(vec, base, WireOpts{TopK: 0.25})
	kept := 0
	for i := range p.Chunks {
		if !p.Chunks[i].Sparse {
			t.Fatalf("chunk %d not sparse", i)
		}
		kept += len(p.Chunks[i].Idx)
	}
	wantKept := int(0.25*float64(len(vec)) + 0.999999)
	if kept != wantKept {
		t.Fatalf("kept %d coordinates, want %d", kept, wantKept)
	}
	back, err := DecodeVec(p, base)
	if err != nil {
		t.Fatal(err)
	}
	// Every strongly perturbed coordinate must be among the kept ones, so the
	// residual error is the tiny perturbation plus quantization.
	for i := range vec {
		if i%10 == 3 {
			if d := math.Abs(float64(vec[i] - back[i])); d > 0.02 {
				t.Fatalf("large-delta coord %d error %v — top-k missed it", i, d)
			}
		}
	}
	if dense := EncodeVec(vec, base, WireOpts{}); p.WireBytes() >= dense.WireBytes() {
		t.Fatalf("sparse %d bytes not smaller than dense %d", p.WireBytes(), dense.WireBytes())
	}
}

// topKMaskSort is the sort-based selection topKMask replaced, kept as the
// oracle the linear-time select must match bit for bit on NaN-free input:
// stable sort by descending |value|, ties toward the lower index.
func topKMaskSort(vals []float32, frac float64) []bool {
	n := len(vals)
	k := int(frac*float64(n) + 0.999999)
	if k < 1 {
		k = 1
	}
	if k >= n {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	abs := func(v float32) float32 {
		if v < 0 {
			return -v
		}
		return v
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := abs(vals[idx[a]]), abs(vals[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	keep := make([]bool, n)
	for _, i := range idx[:k] {
		keep[i] = true
	}
	return keep
}

// tieBreakVals has every magnitude equal: the kept set must be the lowest
// indices. It also seeds FuzzTopKMask.
var tieBreakVals = []float32{1, -1, 1, -1, 1, -1, 1, -1}

func TestTopKMaskDeterministicTieBreak(t *testing.T) {
	vals := tieBreakVals
	keep := topKMask(vals, 0.5)
	want := []bool{true, true, true, true, false, false, false, false}
	if !reflect.DeepEqual(keep, want) {
		t.Fatalf("tie-break not index-ascending: %v", keep)
	}
	// And the whole mask is a pure function: recompute equals.
	if again := topKMask(vals, 0.5); !reflect.DeepEqual(keep, again) {
		t.Fatal("topKMask not deterministic")
	}
}

func TestEncodeVecF16RoundTrip(t *testing.T) {
	rng := tensor.NewRNG(24)
	vec := randVec(rng, 2000, 5)
	p := EncodeVec(vec, nil, WireOpts{F16: true})
	back, err := DecodeVec(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		av := math.Abs(float64(vec[i]))
		if av < 6.2e-5 {
			continue
		}
		if rel := math.Abs(float64(back[i]-vec[i])) / av; rel > 1.0/2048+1e-9 {
			t.Fatalf("coord %d relative error %v beyond f16 bound", i, rel)
		}
	}
	if got := p.WireBytes(); got >= int64(len(vec))*4 || got <= int64(len(vec))*2 {
		t.Fatalf("f16 payload %d bytes out of expected (2n, 4n) range", got)
	}
}

func TestEncodeVecDeterministic(t *testing.T) {
	rng := tensor.NewRNG(25)
	base := randVec(rng, 1500, 2)
	vec := make([]float32, len(base))
	for i := range base {
		vec[i] = base[i] + float32(rng.NormFloat64()*0.05)
	}
	for _, opts := range []WireOpts{{}, {F16: true}, {TopK: 0.3}, {Chunk: 257, TopK: 0.1}} {
		a := EncodeVec(vec, base, opts)
		b := EncodeVec(vec, base, opts)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("opts %+v: encoding not deterministic", opts)
		}
	}
}

// TestWireRoundTripDifferential is the fuzz-differential test: random
// vectors, bases, and codec options; decode must always match the
// uncompressed vector within the analytically derived bound, and WireBytes
// must always beat raw float32.
func TestWireRoundTripDifferential(t *testing.T) {
	f := func(seed int64, nRaw uint16, mode uint8) bool {
		rng := tensor.NewRNG(seed%997 + 1)
		n := int(nRaw)%4000 + 1
		vec := randVec(rng, n, math.Pow(10, rng.Float64()*4-2))

		opts := WireOpts{}
		var base []float32
		switch mode % 4 {
		case 1:
			opts.F16 = true
		case 2:
			base = randVec(rng, n, 1)
		case 3:
			base = randVec(rng, n, 1)
			opts.TopK = 0.1 + rng.Float64()*0.8
		}
		if rng.Intn(2) == 1 {
			opts.Chunk = 1 + rng.Intn(1300)
		}

		p := EncodeVec(vec, base, opts)
		back, err := DecodeVec(p, base)
		if err != nil || len(back) != n {
			return false
		}
		// Size must beat raw float32 plus the per-chunk framing overhead
		// (16 B payload header, ≤12 B per chunk); with a sane chunk size the
		// overhead vanishes and the payload genuinely compresses.
		nChunks := int64((n + opts.chunkSize() - 1) / opts.chunkSize())
		if p.WireBytes() > int64(n)*4+16+12*nChunks {
			return false
		}
		if n >= 256 && opts.chunkSize() >= 256 && p.WireBytes() >= int64(n)*4 {
			return false
		}

		work := vec
		if base != nil {
			work = make([]float32, n)
			for i := range vec {
				work[i] = vec[i] - base[i]
			}
		}
		var bound float64
		if opts.F16 {
			// Relative 2⁻¹¹ on the largest magnitude covers every element.
			var m float64
			for _, v := range work {
				if a := math.Abs(float64(v)); a > m {
					m = a
				}
			}
			bound = m / 2048
		} else {
			bound = q8Bound(work, opts.Chunk)
		}
		if opts.TopK > 0 && opts.TopK < 1 {
			// Dropped coordinates keep the base value: their error is their
			// own |delta|, bounded by the smallest kept magnitude ≤ max|work|.
			for _, v := range work {
				if a := math.Abs(float64(v)); a > bound {
					bound = a
				}
			}
		}
		return maxAbsDiff(vec, back) <= bound+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestWireDeltaReferenceStaysInSync is the property delta coding rests on:
// both peers advance their reference with the *decoded* vector, and chained
// exchanges never diverge.
func TestWireDeltaReferenceStaysInSync(t *testing.T) {
	rng := tensor.NewRNG(26)
	n := 2000
	truth := randVec(rng, n, 1)
	var sender, receiver []float32 // the two peers' references
	for round := 0; round < 20; round++ {
		for i := range truth {
			truth[i] += float32(rng.NormFloat64() * 0.02)
		}
		opts := WireOpts{TopK: 0.5}
		if round%3 == 0 {
			opts = WireOpts{}
		}
		p := EncodeVec(truth, sender, opts)
		got, err := DecodeVec(p, receiver)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Sender reconstructs its own payload the same way to stay in sync.
		mine, err := DecodeVec(p, sender)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, mine) {
			t.Fatalf("round %d: references diverged", round)
		}
		sender, receiver = mine, got
	}
	if d := maxAbsDiff(truth, receiver); d > 0.2 {
		t.Fatalf("chained reconstruction drifted %v from truth", d)
	}
}

func TestDecodeVecRejectsMalformed(t *testing.T) {
	rng := tensor.NewRNG(27)
	vec := randVec(rng, 100, 1)
	base := randVec(rng, 100, 1)

	breakers := []struct {
		name string
		mod  func(p *WirePayload) []float32 // returns decode base
	}{
		{"chunk count lies", func(p *WirePayload) []float32 { p.Header.Chunks++; return nil }},
		{"length overrun", func(p *WirePayload) []float32 { p.Header.Len -= 10; return nil }},
		{"length underrun", func(p *WirePayload) []float32 { p.Header.Len += 10; return nil }},
		{"codes truncated", func(p *WirePayload) []float32 {
			p.Chunks[0].Q8.Codes = p.Chunks[0].Q8.Codes[:10]
			return nil
		}},
		{"both code kinds", func(p *WirePayload) []float32 {
			p.Chunks[0].F16 = []uint16{0}
			return nil
		}},
		{"no codes", func(p *WirePayload) []float32 { p.Chunks[0].Q8 = nil; return nil }},
		{"delta base length mismatch", func(p *WirePayload) []float32 {
			p.Header.Delta = true
			return base[:50]
		}},
		// Sizes come off the wire: none may reach an allocation or a slice
		// expression unchecked.
		{"negative length", func(p *WirePayload) []float32 {
			p.Header.Len, p.Header.Chunks, p.Chunks = -1, 0, nil
			return nil
		}},
		{"huge length, codes absent", func(p *WirePayload) []float32 {
			p.Header.Len += 1 << 40
			p.Chunks[0].N += 1 << 40
			return nil
		}},
		{"negative chunk size", func(p *WirePayload) []float32 {
			p.Chunks[0].N, p.Chunks[1].N = -32, 64
			return nil
		}},
	}
	for _, b := range breakers {
		p := EncodeVec(vec, nil, WireOpts{Chunk: 32})
		dbase := b.mod(p)
		if _, err := DecodeVec(p, dbase); !errors.Is(err, errWire) {
			t.Fatalf("%s: decode returned %v, want an errWire rejection", b.name, err)
		}
	}

	// Sparse-specific: offset outside chunk, and sparse frame in a full payload.
	sp := EncodeVec(vec, base, WireOpts{Chunk: 32, TopK: 0.2})
	sp.Chunks[0].Idx[0] = 40
	if _, err := DecodeVec(sp, base); err == nil {
		t.Fatal("out-of-range sparse offset accepted")
	}
	sp = EncodeVec(vec, base, WireOpts{Chunk: 32, TopK: 0.2})
	sp.Header.Delta = false
	if _, err := DecodeVec(sp, nil); err == nil {
		t.Fatal("sparse chunk in full payload accepted")
	}
	sp = EncodeVec(vec, base, WireOpts{Chunk: 32, TopK: 0.01})
	sp.Chunks[1].N, sp.Chunks[2].N = -1, sp.Chunks[2].N+1+sp.Chunks[1].N
	if _, err := DecodeVec(sp, base); err == nil {
		t.Fatal("negative sparse chunk size accepted")
	}
}

func TestWireBytesMatchesStructure(t *testing.T) {
	vec := make([]float32, 1000)
	for i := range vec {
		vec[i] = float32(i)
	}
	p := EncodeVec(vec, nil, WireOpts{Chunk: 250})
	// 16 header + 4 chunks · (4 + 8 + 250 codes).
	if want := int64(16 + 4*(4+8+250)); p.WireBytes() != want {
		t.Fatalf("WireBytes %d, want %d", p.WireBytes(), want)
	}
	f := EncodeVec(vec, nil, WireOpts{Chunk: 250, F16: true})
	if want := int64(16 + 4*(4+2*250)); f.WireBytes() != want {
		t.Fatalf("f16 WireBytes %d, want %d", f.WireBytes(), want)
	}
	base := make([]float32, 1000)
	s := EncodeVec(vec, base, WireOpts{Chunk: 250, TopK: 0.1})
	// 100 kept total → per chunk 25 codes + 25 offsets.
	if want := int64(16 + 4*(4+8+25+2*25)); s.WireBytes() != want {
		t.Fatalf("sparse WireBytes %d, want %d", s.WireBytes(), want)
	}
}

func TestMappingEqual(t *testing.T) {
	a := [][]int{{0, 1}, {2}}
	if !MappingEqual(a, [][]int{{0, 1}, {2}}) {
		t.Fatal("equal mappings reported unequal")
	}
	for _, b := range [][][]int{
		{{0, 1}},
		{{0, 1}, {3}},
		{{0}, {2}},
		{{0, 1}, {2, 3}},
	} {
		if MappingEqual(a, b) {
			t.Fatalf("unequal mapping %v reported equal", b)
		}
	}
}

// Chunks of a sparse payload must still reconstruct when a chunk keeps zero
// coordinates (all its deltas were below the global threshold).
func TestSparseChunkWithNoKeptCoords(t *testing.T) {
	base := make([]float32, 200)
	vec := append([]float32(nil), base...)
	vec[5] = 10 // the single important delta lives in chunk 0
	p := EncodeVec(vec, base, WireOpts{Chunk: 100, TopK: 0.01})
	back, err := DecodeVec(p, base)
	if err != nil {
		t.Fatal(err)
	}
	if back[5] < 9.9 || back[5] > 10.1 {
		t.Fatalf("kept coordinate decoded to %v", back[5])
	}
	for i, v := range back {
		if i != 5 && v != 0 {
			t.Fatalf("dropped coordinate %d decoded to %v", i, v)
		}
	}
}

// topKFracs spans the sparsification range: a single coordinate up to all
// but one.
var topKFracs = []float64{0.01, 0.25, 0.5, 0.9, 0.9999}

// edgeVec draws n values from a palette built to stress the selection key:
// heavy ties (few distinct magnitudes, both signs), ±0, zeros, ±Inf,
// subnormals and the float32 extremes, mixed with ordinary normals.
func edgeVec(rng *tensor.RNG, n int) []float32 {
	palette := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -0.5,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), -math.Float32frombits(1), // smallest subnormal
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest subnormal
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
	}
	vec := make([]float32, n)
	for i := range vec {
		if rng.Intn(3) == 0 {
			vec[i] = float32(rng.NormFloat64())
		} else {
			vec[i] = palette[rng.Intn(len(palette))]
		}
	}
	return vec
}

// TestTopKMaskMatchesSortOracle is the differential contract of the radix
// select: on NaN-free input it returns exactly the sort's mask.
func TestTopKMaskMatchesSortOracle(t *testing.T) {
	rng := tensor.NewRNG(28)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3000)
		var vec []float32
		switch trial % 3 {
		case 0:
			vec = edgeVec(rng, n)
		case 1:
			vec = randVec(rng, n, 1)
		default:
			// Mostly zeros, as in a delta where few coordinates moved.
			vec = make([]float32, n)
			for i := range vec {
				if rng.Intn(8) == 0 {
					vec[i] = float32(rng.NormFloat64())
				}
			}
		}
		for _, frac := range topKFracs {
			if got, want := topKMask(vec, frac), topKMaskSort(vec, frac); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d n=%d frac=%v: radix select mask differs from the sort oracle", trial, n, frac)
			}
		}
	}
}

// NaN has no order under the sort (it compared unequal and unordered to
// everything, so merge order placed it). The select pins a rule: a NaN key
// is above +Inf's, so NaNs rank first, in index order.
func TestTopKMaskNaNRanksAboveInf(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(0xffc00000)
	inf := float32(math.Inf(1))
	vals := []float32{1, nan, inf, float32(math.Inf(-1)), negNaN, 0}
	for _, c := range []struct {
		frac float64
		want []bool
	}{
		{0.3, []bool{false, true, false, false, true, false}}, // k=2: both NaNs
		{0.5, []bool{false, true, true, false, true, false}},  // k=3: then +Inf (lower index of the ±Inf tie)
	} {
		if got := topKMask(vals, c.frac); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("frac %v: mask %v, want %v", c.frac, got, c.want)
		}
	}
}

// floatsFromBytes reads little-endian float32s, dropping NaNs (the sort
// oracle has no defined answer for them).
func floatsFromBytes(data []byte) []float32 {
	vals := make([]float32, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		if v := math.Float32frombits(binary.LittleEndian.Uint32(data)); v == v {
			vals = append(vals, v)
		}
	}
	return vals
}

func bytesFromFloats(vals []float32) []byte {
	data := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(v))
	}
	return data
}

func FuzzTopKMask(f *testing.F) {
	f.Add(bytesFromFloats(tieBreakVals), 0.5)
	rng := tensor.NewRNG(29)
	for _, frac := range topKFracs {
		f.Add(bytesFromFloats(edgeVec(rng, 64)), frac)
	}
	f.Fuzz(func(t *testing.T, data []byte, frac float64) {
		if !(frac > 0 && frac < 1) || len(data) > 1<<16 {
			return
		}
		vals := floatsFromBytes(data)
		if got, want := topKMask(vals, frac), topKMaskSort(vals, frac); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d frac=%v: mask %v, oracle %v", len(vals), frac, got, want)
		}
	})
}

// FuzzDecodeVec feeds DecodeVec gob-decoded payloads, the form a peer's
// frames arrive in. Whatever the bytes say, decoding must return a vector
// of the header's length or an error wrapping errWire — never panic.
func FuzzDecodeVec(f *testing.F) {
	rng := tensor.NewRNG(30)
	vec, base := randVec(rng, 300, 1), randVec(rng, 300, 1)
	for _, c := range []struct {
		base []float32
		opts WireOpts
	}{
		{nil, WireOpts{}},
		{nil, WireOpts{F16: true, Chunk: 64}},
		{base, WireOpts{Chunk: 100}},
		{base, WireOpts{TopK: 0.25, Chunk: 128}},
		{base, WireOpts{TopK: 0.01, Chunk: 100}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(EncodeVec(vec, c.base, c.opts)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p WirePayload
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&p) != nil {
			return
		}
		// The receiver's own reference: sized to the header whenever that is
		// plausible, so delta payloads reach the chunk checks.
		var ref []float32
		if p.Header.Delta && p.Header.Len >= 0 && p.Header.Len <= 1<<16 {
			ref = make([]float32, p.Header.Len)
		}
		out, err := DecodeVec(&p, ref)
		switch {
		case err != nil && !errors.Is(err, errWire):
			t.Fatalf("rejection does not wrap errWire: %v", err)
		case err == nil && len(out) != p.Header.Len:
			t.Fatalf("decoded %d elements, header says %d", len(out), p.Header.Len)
		}
	})
}

// BenchmarkTopKMask compares the sort oracle and the radix select at the
// size of a typical mlp-dynamic uplink delta.
func BenchmarkTopKMask(b *testing.B) {
	vec := randVec(tensor.NewRNG(31), 8500, 0.01)
	for _, c := range []struct {
		name string
		fn   func([]float32, float64) []bool
	}{{"sort", topKMaskSort}, {"select", topKMask}} {
		b.Run(c.name+"_n8500_frac0.25", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchMask = c.fn(vec, 0.25)
			}
		})
	}
}

var benchMask []bool
