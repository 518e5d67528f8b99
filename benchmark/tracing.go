package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// spanCapacity bounds a traced run's flight recorder. The largest traced
// episode (rpc-loopback: 3,600 device rounds at about 34 spans each) fits;
// the ring must not wrap, or parent validation fails on evicted parents.
const spanCapacity = 1 << 18

// tracer is a traced run's instruments: the span recorder shared by the
// benchmark's own spans and the program's fed.*, rpc.* and srv.* recorders,
// plus the CPU profile, registry and runtime readings taken around the
// traced episode's online phase. A nil *tracer traces nothing; every method
// is then a no-op, so workloads call them unconditionally.
type tracer struct {
	rec  *span.Recorder
	regs []*obs.Registry

	prof       bytes.Buffer
	regBefore  map[string]regValue
	regAfter   map[string]regValue
	rtBefore   goRuntime
	rtOnline   goRuntime
	profErr    error
	onlineOpen bool
}

func newTracer(seed int64) *tracer {
	rec := span.NewRecorder(spanCapacity)
	rec.SetSampler(seed, 1)
	return &tracer{rec: rec, regs: []*obs.Registry{obs.Default()}}
}

// recorder returns the recorder to hand to the program (nil when untraced).
func (t *tracer) recorder() *span.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// addRegistry includes a per-instance registry (the edgenet server's) in the
// before/after diff. Call before beginOnline.
func (t *tracer) addRegistry(r *obs.Registry) {
	if t != nil {
		t.regs = append(t.regs, r)
	}
}

// beginOnline starts the CPU profile and takes the "before" readings.
func (t *tracer) beginOnline() {
	if t == nil {
		return
	}
	t.regBefore = snapshotRegistries(t.regs)
	t.rtBefore = readGoRuntime()
	t.profErr = pprof.StartCPUProfile(&t.prof)
	t.onlineOpen = t.profErr == nil
}

// endOnline stops the profile and takes the "after" readings.
func (t *tracer) endOnline() {
	if t == nil {
		return
	}
	if t.onlineOpen {
		pprof.StopCPUProfile()
		t.onlineOpen = false
	}
	t.rtOnline = readGoRuntime().sub(t.rtBefore)
	t.regAfter = snapshotRegistries(t.regs)
}

// regValue is one registry point: a counter/gauge value, or a histogram's
// sum and count.
type regValue struct {
	value, sum float64
	count      uint64
}

func snapshotRegistries(regs []*obs.Registry) map[string]regValue {
	out := map[string]regValue{}
	for _, r := range regs {
		for _, f := range r.Snapshot() {
			for _, p := range f.Points {
				k := f.Name + "{" + p.Labels + "}"
				v := out[k]
				v.value += p.Value
				v.sum += p.Sum
				v.count += p.Count
				out[k] = v
			}
		}
	}
	return out
}

// regDelta returns after−before for every point whose key starts with
// prefix (a family name, optionally followed by "{" and labels), summed.
func (t *tracer) regDelta(prefix string) regValue {
	var d regValue
	for _, k := range sortedKeys(t.regAfter) {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		a, b := t.regAfter[k], t.regBefore[k]
		d.value += a.value - b.value
		d.sum += a.sum - b.sum
		d.count += a.count - b.count
	}
	return d
}

// selfTimes computes every span's self time: its duration minus the part of
// its interval covered by its children. A bench.* span's children are its
// explicit children plus the program's root spans (fed.round) that ran
// inside it — the program opens those in traces of its own, so the
// containment is by time, on the single benchmark goroutine that made the
// call.
func selfTimes(spans []span.Span) map[span.SpanID]float64 {
	children := map[span.SpanID][]span.Span{}
	var benchSpans, programRoots []span.Span
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else if strings.HasPrefix(s.Kind, "bench.") {
			benchSpans = append(benchSpans, s)
		} else {
			programRoots = append(programRoots, s)
		}
	}
	for _, r := range programRoots {
		for _, b := range benchSpans {
			if b.Kind != "bench.round" || r.Start < b.Start || r.End() > b.End() {
				continue
			}
			children[b.ID] = append(children[b.ID], r)
			break
		}
	}
	self := make(map[span.SpanID]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span.Span, kids []span.Span) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End(), parent.End())
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	tot, end := 0.0, parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		tot += v.b - max(v.a, end)
		end = v.b
	}
	return tot
}

// kindSummary is the self-time roll-up of one span kind.
type kindSummary struct {
	kind       string
	n          int
	total, own float64 // seconds
}

func summarizeKinds(spans []span.Span) []kindSummary {
	self := selfTimes(spans)
	by := map[string]*kindSummary{}
	for _, s := range spans {
		k := by[s.Kind]
		if k == nil {
			k = &kindSummary{kind: s.Kind}
			by[s.Kind] = k
		}
		k.n++
		k.total += s.Dur
		k.own += self[s.ID]
	}
	out := make([]kindSummary, 0, len(by))
	for _, k := range sortedKeys(by) {
		out = append(out, *by[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].own != out[j].own {
			return out[i].own > out[j].own
		}
		return out[i].kind < out[j].kind
	})
	return out
}

func writeKindSummary(w io.Writer, sums []kindSummary) {
	fmt.Fprintf(w, "# span self time by kind\n# %-24s %8s %12s %12s\n", "kind", "count", "total_s", "self_s")
	for _, k := range sums {
		fmt.Fprintf(w, "# %-24s %8d %12.6f %12.6f\n", k.kind, k.n, k.total, k.own)
	}
}

// durationsMs returns the durations, in ms, of the spans of one kind.
func durationsMs(spans []span.Span, kind string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Kind == kind {
			out = append(out, s.Dur*1e3)
		}
	}
	return out
}

func sumSeconds(spans []span.Span, kind string) float64 {
	var t float64
	for _, s := range spans {
		if s.Kind == kind {
			t += s.Dur
		}
	}
	return t
}

// writeSpans writes the spans as JSON lines (the format cmd/nebula-spans
// reads) to path, creating its directory.
func writeSpans(path string, spans []span.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := span.WriteJSON(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
