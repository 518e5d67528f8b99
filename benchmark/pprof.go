package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the layer split
// needs: each distinct stack (function names, leaf first) with its sample
// count. The standard library writes profiles but cannot read them, and the
// module takes no dependencies, so parseProfile decodes the gzipped
// profile.proto wire format directly, keeping only samples, locations,
// functions and the string table.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

func (p *cpuProfile) total() int64 {
	var n int64
	for _, c := range p.counts {
		n += c
	}
	return n
}

// pbField is one decoded protobuf field: varint and fixed values in num,
// length-delimited payloads in buf.
type pbField struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("pprof: bad varint")
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.num, n, err = pbVarint(b); err != nil {
				return nil, err
			}
		case 1:
			n = 8
		case 5:
			n = 4
		case 2:
			l, m, err := pbVarint(b)
			if err != nil {
				return nil, err
			}
			if l > uint64(len(b)-m) {
				return nil, errors.New("pprof: truncated field")
			}
			f.buf, n = b[m:m+int(l)], m+int(l)
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if n > len(b) {
			return nil, errors.New("pprof: truncated field")
		}
		b = b[n:]
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.num), nil
	}
	b := f.buf
	for len(b) > 0 {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile as runtime/pprof writes it.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	for _, f := range top {
		switch f.tag {
		case 2: // Sample
			fs, err := pbFields(f.buf)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, sf := range fs {
				switch sf.tag {
				case 1:
					if s.locs, err = pbUints(sf, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbUints(sf, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := pbFields(f.buf)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fids []uint64
			for _, lf := range fs {
				switch lf.tag {
				case 1:
					id = lf.num
				case 4: // Line
					lfs, err := pbFields(lf.buf)
					if err != nil {
						return nil, err
					}
					for _, x := range lfs {
						if x.tag == 1 {
							fids = append(fids, x.num)
						}
					}
				}
			}
			locs[id] = fids
		case 5: // Function
			fs, err := pbFields(f.buf)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.tag {
				case 1:
					id = ff.num
				case 2:
					name = ff.num
				}
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(f.buf))
		}
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				if ni, ok := funcs[fid]; ok && ni < uint64(len(strs)) {
					stack = append(stack, strs[ni])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

const repoPrefix = "repro/internal/"

// layerOf attributes a stack to the repository package of its innermost
// repository frame, so library code a layer calls (sort under topKMask,
// encoding/gob under the codec, malloc under a kernel) counts as that
// layer's own work. Stacks with no repository frame are the Go runtime's
// (GC workers, scheduler) or "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") {
			return "runtime"
		}
	}
	return "other"
}

// layerShares folds the profile by layer: each layer's share of all samples.
func (p *cpuProfile) layerShares() map[string]float64 {
	out := map[string]float64{}
	tot := float64(p.total())
	for i, st := range p.stacks {
		out[layerOf(st)] += float64(p.counts[i]) / tot
	}
	return out
}

// stackShare is the share of samples with a function matching any of the
// prefixes anywhere on the stack (cumulative time).
func (p *cpuProfile) stackShare(prefixes ...string) float64 {
	var hit int64
	for i, st := range p.stacks {
	frames:
		for _, fn := range st {
			for _, pre := range prefixes {
				if strings.HasPrefix(fn, pre) {
					hit += p.counts[i]
					break frames
				}
			}
		}
	}
	return ratio(float64(hit), float64(p.total()))
}
