// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload per process — cnn-sync, mlp-dynamic or rpc-loopback, described
// in README.md — through the program's public calls, checks the outputs,
// and prints every metric by name with its unit, ending with one JSON line:
//
//	bash benchmark/run.sh --workload cnn-sync --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 traces one episode
// (spans, CPU profile, registry and runtime diffs) and reports the
// per-layer metrics. --all runs every workload, each in a fresh
// process, and prints one row per workload.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
)

type config struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	expectDigest string
	spansDir     string
	size         sizing
	floor        float64 // final_acc every episode must reach
}

func main() {
	var (
		cfg   config
		trace int
		all   bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "keep starting episodes until this many seconds have passed")
	flag.IntVar(&trace, "trace", 0, "1 = trace the replayed episode and report the per-layer metrics")
	flag.BoolVar(&all, "all", false, "run every workload untraced, each in a fresh process, and print one row per workload")
	flag.StringVar(&cfg.expectDigest, "expect-digest", "", "cloud-parameter digest the run must reproduce (deterministic workloads)")
	flag.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "directory the traced repetition's spans are written to (empty = keep in memory only)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.size = fullSize()
	cfg.floor = accFloor[cfg.workload]

	if all {
		if err := runAll(os.Stdout, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// episodeRecord is what the runner keeps of one episode.
type episodeRecord struct {
	replay  bool // a replay of episode 0, made to check reproducibility
	traced  bool
	log     opLog
	cpu     float64 // s of CPU over the online phase
	wall    float64 // s of wall time over the online phase
	peakRSS float64 // MiB, from set-up to the end of evaluation
	eval    float64 // s of evaluation
	out     outcome
}

// episodeSeed derives episode e's seed from the run seed.
func episodeSeed(seed int64, e int) int64 { return seed*1_000_003 + int64(e)*7_919 }

// offlineShare is the part of a run that goes into timing the offline stage.
// Trainings are interleaved with the episodes, so that a slow spell of the
// machine moves few of them, and a short offline stage is timed often.
const offlineShare = 1.0 / 3

// run measures one workload. It trains the cloud model once for the
// checkpoint and times a few stand-alone set-ups. It then runs episodes —
// each on a fleet drawn from its own episode seed, starting from the
// trained model — until cfg.seconds have passed and at least the accounted
// episodes have run. Varying the fleet across episodes makes one run's
// medians stand for the workload rather than for one fleet. Between
// episodes it trains the cloud model again (see offlineShare), at least
// twice in all; every training must produce the same checkpoint. A
// deterministic workload then replays episode 0 and must reproduce it bit
// for bit; in trace mode that replay is the traced episode, so the
// per-layer metrics and the tracing overhead come from the same inputs as
// an untraced episode.
func run(w io.Writer, cfg config) (*result, error) {
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	start := obs.StartTimer()
	var (
		tr     *tracer
		fails  []string
		checks int
	)
	if cfg.trace {
		tr = newTracer(cfg.seed)
	}
	check := func(ok bool, format string, args ...any) {
		checks++
		if !ok {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
	}

	var (
		offline []float64
		spent   float64
		ckpt    []byte
	)
	train := func() error {
		d, c, err := wl.offline(cfg.size, tr)
		if err != nil {
			return fmt.Errorf("%s offline: %w", cfg.workload, err)
		}
		offline = append(offline, d)
		spent += d
		if ckpt != nil {
			check(bytes.Equal(c, ckpt), "offline training %d trained a different model than the first", len(offline))
		}
		ckpt = c
		return nil
	}
	if err := train(); err != nil {
		return nil, err
	}

	// Set-up is cheap next to an episode, so it is also timed on its own a
	// few times; setup_s is the median over these and every episode's.
	var setups []float64
	for i := 0; i < 3; i++ {
		wl, _ := newWorkload(cfg.workload)
		sw := obs.StartTimer()
		err := wl.setup(episodeSeed(cfg.seed, 0), cfg.size, ckpt, nil)
		setups = append(setups, sw.Seconds())
		wl.close()
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
	}

	accounted := cfg.size.accountedFor(cfg.workload)
	var eps []episodeRecord
	for e := 0; e < accounted || start.Seconds() < cfg.seconds; e++ {
		rec, setup, err := episode(cfg, episodeSeed(cfg.seed, e), ckpt, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		eps = append(eps, rec)
		if spent < offlineShare*start.Seconds() || len(offline) < 2 && e+1 >= accounted {
			if err := train(); err != nil {
				return nil, err
			}
		}
	}
	if wl.deterministic() || cfg.trace {
		rec, setup, err := episode(cfg, episodeSeed(cfg.seed, 0), ckpt, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		rec.replay = true
		eps = append(eps, rec)
	}

	// Correctness: per-operation failures, the floor, reproducibility.
	// Every check counts as one attempt, like every online operation.
	attempted := 0
	for i := range eps {
		r := &eps[i]
		attempted += r.log.ops + r.log.checks
		fails = append(fails, r.log.failures...)
		check(r.out.acc >= cfg.floor, "episode %d: final_acc %.4f below the floor %.2f", i, r.out.acc, cfg.floor)
		if r.replay && wl.deterministic() {
			p := &eps[0]
			check(r.out.acc == p.out.acc && r.out.digest == p.out.digest && r.log.bytes == p.log.bytes,
				"replay of episode 0 differs: acc %v vs %v, digest %s vs %s, bytes %v vs %v",
				r.out.acc, p.out.acc, r.out.digest, p.out.digest, r.log.bytes, p.log.bytes)
		}
	}
	digest := runDigest(eps, accounted)
	if cfg.expectDigest != "" {
		check(digest == cfg.expectDigest, "cloud-parameter digest %s, expected %s", digest, cfg.expectDigest)
	}
	var spans []span.Span
	if tr != nil {
		spans = tr.rec.Snapshot()
		check(tr.rec.Dropped() == 0, "span recorder dropped %d spans", tr.rec.Dropped())
		err := span.ValidateParents(spans)
		check(err == nil, "span parents: %v", err)
	}
	res := &result{Attempted: attempted + checks, Failed: len(fails), Correct: len(fails) == 0}

	prov := provenance(cfg)
	fmt.Fprintf(w, "# workload=%s seed=%d trace=%v episodes=%d elapsed_s=%.1f digest=%s\n",
		cfg.workload, cfg.seed, cfg.trace, len(eps), start.Seconds(), digest)
	fmt.Fprintf(w, "# provenance: %s\n", prov)
	for _, f := range fails {
		fmt.Fprintf(w, "# FAIL: %s\n", f)
	}
	e2e, row := endToEnd(cfg, setups, offline, eps)
	if !cfg.trace {
		res.Metrics = e2e
	} else {
		layers, sums, err := perLayer(tr, spans, eps)
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
		writeKindSummary(w, sums)
		if cfg.spansDir != "" {
			path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
			if err := writeSpans(path, spans); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "# spans: %d written to %s\n", len(spans), path)
		}
	}
	row.Provenance = prov
	rowJSON, _ := json.Marshal(row)
	fmt.Fprintf(w, "# row %s\n", rowJSON)
	writeMetrics(w, res.Metrics)
	return res, nil
}

// runDigest folds the accounted episodes' cloud-parameter digests into one
// (empty for workloads that are not deterministic).
func runDigest(eps []episodeRecord, accounted int) string {
	var parts []string
	for _, r := range eps {
		if r.out.digest == "" || r.replay || len(parts) == accounted {
			continue
		}
		parts = append(parts, r.out.digest)
	}
	if len(parts) == 0 {
		return ""
	}
	h := sha256.Sum256([]byte(strings.Join(parts, "/")))
	return hex.EncodeToString(h[:8])
}

// episode runs one episode and returns its record and set-up time.
func episode(cfg config, seed int64, ckpt []byte, t *tracer) (episodeRecord, float64, error) {
	rec := episodeRecord{traced: t != nil}
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return rec, 0, err
	}
	defer wl.close()
	resetPeakRSS()
	sw := obs.StartTimer()
	err = wl.setup(seed, cfg.size, ckpt, t)
	setup := sw.Seconds()
	if err != nil {
		return rec, setup, fmt.Errorf("%s setup: %w", cfg.workload, err)
	}

	cpu0 := cpuSeconds()
	t.beginOnline()
	sw = obs.StartTimer()
	wl.online(t, &rec.log)
	rec.wall = sw.Seconds()
	t.endOnline()
	rec.cpu = cpuSeconds() - cpu0

	sw = obs.StartTimer()
	rec.out = wl.evaluate()
	rec.eval = sw.Seconds()
	rec.peakRSS = peakRSSMB()
	return rec, setup, nil
}

// tableRow is one workload's row of the --all table: fifteen end-to-end
// quantities — the eight metrics plus tails and rpc-loopback's names for its
// throughput and bytes — absent where a workload has no such quantity, with
// sample counts and provenance.
type tableRow struct {
	Workload   string             `json:"workload"`
	Values     map[string]float64 `json:"values"`
	Samples    map[string]int     `json:"samples"`
	Levels     map[string]float64 `json:"levels"` // percentile of each *_tail value
	Provenance string             `json:"provenance"`
}

// endToEnd computes the end-to-end metrics. Timings are medians over the
// distinct untraced episodes (or their rounds), so a slow spell of the
// machine shorter than half a run barely moves them; final_acc and
// bytes_per_round come from the accounted episodes, so they depend on the
// seed alone.
func endToEnd(cfg config, setups, offline []float64, eps []episodeRecord) (map[string]metric, tableRow) {
	var (
		cpu, rss, acc, rounds, rate, fetch, push []float64
		accBytes, accOps                         float64
	)
	for i, r := range eps {
		if r.replay {
			continue
		}
		cpu = append(cpu, r.cpu)
		rss = append(rss, r.peakRSS)
		rounds = append(rounds, r.log.roundMs...)
		fetch = append(fetch, r.log.fetchMs...)
		push = append(push, r.log.pushMs...)
		rate = append(rate, ratio(float64(len(r.log.roundMs)), r.wall))
		if i < cfg.size.accountedFor(cfg.workload) {
			acc = append(acc, r.out.acc)
			accBytes += r.log.bytes
			accOps += float64(len(r.log.roundMs))
		}
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return ratio(s, float64(len(xs)))
	}
	m := map[string]metric{
		"setup_s":         {median(setups), "s"},
		"offline_s":       {median(offline), "s"},
		"round_ms_p50":    {median(rounds), "ms"},
		"rounds_per_s":    {median(rate), "1/s"},
		"bytes_per_round": {ratio(accBytes, accOps), "B"},
		"final_acc":       {mean(acc), "ratio"},
		"cpu_s":           {median(cpu), "s"},
		"peak_rss_mb":     {median(rss), "MiB"},
	}
	row := tableRow{Workload: cfg.workload, Values: map[string]float64{}, Samples: map[string]int{}, Levels: map[string]float64{}}
	for _, k := range sortedKeys(m) {
		row.Values[k] = m[k].Value
	}
	row.Samples["setup_s"] = len(setups)
	row.Samples["offline_s"] = len(offline)
	row.Samples["round_ms_p50"] = len(rounds)
	row.Samples["cpu_s"] = len(cpu)
	row.Samples["peak_rss_mb"] = len(rss)
	tailInto := func(name string, xs []float64) {
		if lvl, v, n := tail(xs); lvl > 0 {
			key := name + "_tail"
			row.Values[key], row.Samples[key], row.Levels[key] = v, n, lvl
		}
	}
	tailInto("round_ms", rounds)
	if len(fetch) > 0 {
		// rpc-loopback's round is one device's fetch → update → push pair.
		row.Values["rpc_pairs_per_s"] = m["rounds_per_s"].Value
		row.Values["wire_bytes_per_pair"] = m["bytes_per_round"].Value
		row.Values["fetch_ms_p50"], row.Samples["fetch_ms_p50"] = median(fetch), len(fetch)
		row.Values["push_ms_p50"], row.Samples["push_ms_p50"] = median(push), len(push)
		tailInto("fetch_ms", fetch)
		tailInto("push_ms", push)
	}
	return m, row
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeMetrics(w io.Writer, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// provenance identifies the build and machine a result came from.
func provenance(cfg config) string {
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d kernel=%s cpu=%s commit=%s seed=%d workers=%d",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), tensor.KernelMode(),
		tensor.CPUFeatures(), gitCommit(), cfg.seed, workers)
}

// gitCommit reads the checked-out commit from .git in the working directory
// without running git; it is "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// allColumns is the --all table's column order. A *_tail column is the
// highest percentile with at least ten samples beyond it (see tail); its
// cell names the percentile.
var allColumns = []string{
	"setup_s", "offline_s", "round_ms_p50", "round_ms_tail", "rounds_per_s", "final_acc",
	"bytes_per_round", "fetch_ms_p50", "fetch_ms_tail", "push_ms_p50", "push_ms_tail",
	"rpc_pairs_per_s", "wire_bytes_per_pair", "cpu_s", "peak_rss_mb",
}

// runAll runs every workload untraced in a fresh process of this binary and
// prints one row per workload.
func runAll(w io.Writer, cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var rows []tableRow
	var failed []string
	for _, name := range workloadNames {
		cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(cfg.seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var row tableRow
		var res result
		sc := bufio.NewScanner(bytes.NewReader(out))
		var last string
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "# row "); ok {
				if err := json.Unmarshal([]byte(rest), &row); err != nil {
					return fmt.Errorf("%s: row: %w", name, err)
				}
			}
			if strings.HasPrefix(line, "# FAIL") {
				failed = append(failed, name+": "+line)
			}
			last = line
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("%s: result: %w", name, err)
		}
		if !res.Correct {
			failed = append(failed, fmt.Sprintf("%s: %d of %d attempts failed", name, res.Failed, res.Attempted))
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "# provenance: %s\n", strings.TrimSuffix(rows[0].Provenance, fmt.Sprintf(" seed=%d workers=%d", cfg.seed, workers)))
	fmt.Fprintf(w, "%-13s", "workload")
	for _, c := range allColumns {
		fmt.Fprintf(w, " %*s", colWidth(c), c+"["+unitOf(c)+"]")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s", r.Workload)
		for _, c := range allColumns {
			v, ok := r.Values[c]
			s := "-"
			if ok {
				s = fmt.Sprintf("%.4g", v)
				if lvl := r.Levels[c]; lvl > 0 {
					s += fmt.Sprintf(" (p%g n=%d)", lvl, r.Samples[c])
				} else if n := r.Samples[c]; n > 0 {
					s += fmt.Sprintf(" (n=%d)", n)
				}
			}
			fmt.Fprintf(w, " %*s", colWidth(c), s)
		}
		fmt.Fprintln(w)
	}
	if len(failed) > 0 {
		return errors.New("correctness checks failed:\n" + strings.Join(failed, "\n"))
	}
	return nil
}

func unitOf(col string) string {
	switch {
	case strings.HasSuffix(col, "_ms_p50"), strings.HasSuffix(col, "_ms_tail"):
		return "ms"
	case strings.HasSuffix(col, "_per_s"):
		return "1/s"
	case strings.HasSuffix(col, "_s"):
		return "s"
	case strings.HasPrefix(col, "bytes"), strings.HasPrefix(col, "wire_bytes"):
		return "B"
	case col == "peak_rss_mb":
		return "MiB"
	}
	return "ratio"
}

func colWidth(c string) int { return max(len(c)+len(unitOf(c))+2, 14) }
