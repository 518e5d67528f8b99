package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/span"
)

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		level float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 75}, {40, 75}, {20, 50}, {19, 0}, {0, 0},
	} {
		xs := seq(tc.n)
		level, v, n := tail(xs)
		if level != tc.level || n != tc.n {
			t.Errorf("tail(%d samples) = level %v, n %d; want level %v, n %d", tc.n, level, n, tc.level, tc.n)
			continue
		}
		if level == 0 {
			continue
		}
		if want := quantile(xs, level/100); v != want {
			t.Errorf("tail(%d samples) value %v, want %v", tc.n, v, want)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("tail(%d samples): p%v has %d samples beyond it, want ≥ 10", tc.n, level, beyond)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 1: 4, 0.5: 2.5, 0.25: 1.75} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is usable as a result key: it starts
// with a letter or digit and holds at most 64 letters, digits, '_', '.' and
// '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// TestMetricNames checks that BENCHMARK.json and the benchmark agree on
// every metric, and that every name is valid and used once.
func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "a{b}", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, _ := endToEnd(config{workload: "cnn-sync"}, nil, nil, nil)
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s [%s] in BENCHMARK.json, reported as %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayerNames))
	}
	seen := map[string]bool{}
	for i, m := range spec.PerLayer {
		if i < len(perLayerNames) && (perLayerNames[i].name != m.Name || perLayerNames[i].unit != m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, perLayerNames[i].name, perLayerNames[i].unit)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !validMetricName(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is invalid or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span.Span{
		{ID: 1, Kind: "bench.round", Start: 0, Dur: 10},
		{ID: 2, Kind: "fed.round", Start: 1, Dur: 6}, // program root inside bench.round
		{ID: 3, Parent: 2, Kind: "fed.device", Start: 1, Dur: 2},
		{ID: 4, Parent: 2, Kind: "fed.device", Start: 2, Dur: 3}, // overlaps 3
		{ID: 5, Kind: "fed.round", Start: 20, Dur: 1},            // outside every bench span
	}
	self := selfTimes(spans)
	for id, want := range map[span.SpanID]float64{1: 4, 2: 2, 3: 2, 4: 3, 5: 1} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.total() == 0 {
		t.Skip("profile took no samples")
	}
	if s := p.stackShare("repro/benchmark.TestParseProfile"); s < 0.5 {
		t.Errorf("busy loop holds %.2f of the samples, want most (x=%v)", s, x)
	}
	if got := layerOf([]string{"sort.insertionSort", "repro/internal/edgenet.topKMask", "repro/internal/fed.(*Nebula).round"}); got != "edgenet" {
		t.Errorf("layerOf = %q, want edgenet", got)
	}
	if got := layerOf([]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}); got != "runtime" {
		t.Errorf("layerOf = %q, want runtime", got)
	}
}

// tinyRun runs a workload at test size and returns its result and output.
// Models trained at test size are too weak for the accuracy floors of the
// full-size workloads, so the floor is 0 here; everything else is checked.
func tinyRun(t *testing.T, workload string, trace bool, expectDigest string) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(&out, config{
		workload: workload, seed: 3, trace: trace, expectDigest: expectDigest,
		size: tinySize(),
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestWorkloadsSmoke runs every workload at test size, untraced and traced,
// and checks that every metric is emitted, that the correctness checks
// pass, and that a wrong expected digest is reported as a failure.
func TestWorkloadsSmoke(t *testing.T) {
	e2e, _ := endToEnd(config{}, nil, nil, nil)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, out := tinyRun(t, w, false, "")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out)
			}
			for name := range e2e {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("untraced run lacks %s", name)
				}
			}
			for _, name := range []string{"setup_s", "offline_s", "round_ms_p50", "rounds_per_s", "bytes_per_round", "cpu_s", "peak_rss_mb"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}

			res, out = tinyRun(t, w, true, "")
			if !res.Correct {
				t.Fatalf("traced run failed:\n%s", out)
			}
			for _, m := range perLayerNames {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("traced run lacks %s", m.name)
				}
			}
			if res.Metrics["bench.spans"].Value == 0 || res.Metrics["bench.traced_rounds"].Value == 0 {
				t.Errorf("traced run recorded no spans or rounds:\n%s", out)
			}

			res, out = tinyRun(t, w, false, "0123456789abcdef")
			if res.Correct || res.Failed == 0 || !strings.Contains(out, "expected 0123456789abcdef") {
				t.Errorf("wrong expected digest not reported: correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
			}
		})
	}
}
