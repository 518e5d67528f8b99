#!/bin/sh
# ci.sh — the repository's verification gate, exactly what `make check`
# runs, as a standalone script for CI systems without make. Exits nonzero on
# the first failure: build break, go vet finding, nebula-lint finding, or a
# test/race failure.
#
# Optionally pass a seed to also audit experiment determinism end-to-end:
#   ./ci.sh 7    # additionally runs `nebula-sim -exp fig1b -seed 7 -seed-audit`
set -eu

echo "== go build ./..."
go build ./...

echo "== gofmt -l (every Go file but the deliberately malformed lint fixtures)"
unformatted=$(find . -name '*.go' -not -path './internal/lint/testdata/*' \
    -not -path './.bench_build/*' -not -path './.git/*' -print0 | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
    echo "$unformatted" >&2
    echo "ci: gofmt would reformat the files above (run gofmt -w on them)" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== nebula-lint ./... (typed whole-program engine)"
linttmp=$(mktemp -d)
go build -o "$linttmp/nebula-lint" ./cmd/nebula-lint
# Findings gate the build; the clean run is then archived in both wire forms
# (text + byte-stable JSON) as CI artifacts.
artifact_dir="${CI_ARTIFACT_DIR:-$linttmp/artifacts}"
mkdir -p "$artifact_dir"
if ! "$linttmp/nebula-lint" ./... >"$artifact_dir/lint-report.txt" 2>&1; then
    cat "$artifact_dir/lint-report.txt" >&2
    echo "ci: nebula-lint found violations (report archived at $artifact_dir/lint-report.txt)" >&2
    exit 1
fi
"$linttmp/nebula-lint" -json ./... >"$artifact_dir/lint-report.json"

echo "== nebula-lint self-check (a fixture must trip every registered check)"
# One unscoped run over the fixture tree (flat files + cross-package
# mini-modules under xmod/), then every name `-list` reports — including the
# loaderror and nolint pseudo-checks — must appear in the findings.
if "$linttmp/nebula-lint" -unscoped -json internal/lint/testdata/... \
    >"$linttmp/fixtures.json" 2>/dev/null; then
    echo "ci: nebula-lint exited 0 on its own fixtures — the analyzer is broken" >&2
    exit 1
fi
for c in $("$linttmp/nebula-lint" -list | awk '$1 != "scope:" {print $1}'); do
    grep -q "\"check\": \"$c\"" "$linttmp/fixtures.json" || {
        echo "ci: no fixture trips check '$c' — every registered check needs a tripping fixture" >&2
        exit 1
    }
done
rm -rf "$linttmp"

echo "== go test -race (fed parallel determinism tests)"
go test -race -run 'WorkersDifferential|ParticipantSets|ForEachDevice' ./internal/fed/

echo "== go test -race ./..."
go test -race ./...

echo "== fuzz smoke (each native fuzz target, briefly)"
# FuzzTopKMask checks the radix-select top-k mask against the retained sort
# oracle; FuzzDecodeVec feeds the wire-v2 decoder mutated gob payloads, which
# must be rejected with errWire, never a panic. A failing input lands under
# internal/edgenet/testdata/fuzz/ and fails plain `go test` from then on.
for target in FuzzTopKMask FuzzDecodeVec; do
    go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/edgenet >/dev/null
done

echo "== workers differential gate (artifacts identical for -workers 1 vs 4)"
difftmp=$(mktemp -d)
# -admin-addr stays on: artifacts must be identical with the telemetry
# plane live (the registry is write-only; docs/OBSERVABILITY.md).
for w in 1 4; do
    go run ./cmd/nebula-sim -exp faults -devices 6 -proxy 8 -steps 2 \
        -pretrain-epochs 1 -finetune-epochs 1 -local-epochs 1 -seed 5 \
        -workers "$w" -admin-addr 127.0.0.1:0 \
        -trace "$difftmp/w$w.jsonl" >"$difftmp/w$w.out" 2>/dev/null
done
cmp "$difftmp/w1.out" "$difftmp/w4.out" || {
    echo "ci: experiment output differs between -workers 1 and -workers 4" >&2
    exit 1
}
cmp "$difftmp/w1.jsonl" "$difftmp/w4.jsonl" || {
    echo "ci: trace JSONL differs between -workers 1 and -workers 4" >&2
    exit 1
}
go run ./cmd/nebula-trace "$difftmp/w1.jsonl" >/dev/null
rm -rf "$difftmp"

echo "== semi-async gate (straggler experiment: latency win at equal accuracy; async artifacts identical for -workers 1 vs 4)"
asynctmp=$(mktemp -d)
# The straggler experiment runs bulk-sync and semi-async on one seeded
# dynamic fleet (churn + pinned stragglers) and prints a machine-checkable
# verdict line; only the async run writes the trace, so the byte-diff below
# exercises the deadline/staleness/churn code paths (docs/ASYNC.md).
for w in 1 4; do
    go run ./cmd/nebula-sim -exp straggler -devices 6 -proxy 8 -steps 3 \
        -pretrain-epochs 1 -finetune-epochs 1 -local-epochs 1 -seed 5 \
        -workers "$w" -trace "$asynctmp/w$w.jsonl" >"$asynctmp/w$w.out" 2>/dev/null
done
grep -q 'straggler-gate: PASS' "$asynctmp/w1.out" || {
    grep 'straggler-gate:' "$asynctmp/w1.out" >&2 || true
    echo "ci: semi-async rounds did not beat bulk-sync latency at equal accuracy" >&2
    exit 1
}
cmp "$asynctmp/w1.out" "$asynctmp/w4.out" || {
    echo "ci: straggler experiment output differs between -workers 1 and -workers 4" >&2
    exit 1
}
cmp "$asynctmp/w1.jsonl" "$asynctmp/w4.jsonl" || {
    echo "ci: semi-async trace JSONL differs between -workers 1 and -workers 4" >&2
    exit 1
}
go run ./cmd/nebula-trace "$asynctmp/w1.jsonl" >/dev/null
# Async determinism end-to-end: same seed, two passes, byte-identical output.
go run ./cmd/nebula-sim -exp straggler -devices 6 -proxy 8 -steps 2 \
    -pretrain-epochs 1 -finetune-epochs 1 -local-epochs 1 -seed 5 \
    -seed-audit >/dev/null
rm -rf "$asynctmp"

echo "== wire-compression gate (compress experiment: >=2x traffic cut at bounded accuracy delta, counters exact; artifacts identical for -workers 1 vs 4)"
comptmp=$(mktemp -d)
# The compress experiment runs one seeded adaptation twice — exact float32
# transfers vs the wire-format v2 codec (docs/PROTOCOL.md) — and prints a
# machine-checkable verdict: traffic ratio >= 2, accuracy within epsilon,
# and the Costs ledger exactly equal to trace.Summarize in both runs.
for w in 1 4; do
    go run ./cmd/nebula-sim -exp compress -devices 8 -proxy 8 -rounds 3 \
        -per-round 6 -pretrain-epochs 1 -local-epochs 1 -seed 5 \
        -workers "$w" >"$comptmp/w$w.out" 2>/dev/null
done
grep -q 'compress-gate: PASS' "$comptmp/w1.out" || {
    grep 'compress-gate:' "$comptmp/w1.out" >&2 || true
    echo "ci: wire-format v2 did not cut traffic >=2x at bounded accuracy delta with exact counters" >&2
    exit 1
}
cmp "$comptmp/w1.out" "$comptmp/w4.out" || {
    echo "ci: compress experiment output differs between -workers 1 and -workers 4" >&2
    exit 1
}
go run ./cmd/nebula-sim -exp compress -devices 8 -proxy 8 -rounds 3 \
    -per-round 6 -pretrain-epochs 1 -local-epochs 1 -seed 5 \
    -seed-audit >/dev/null
rm -rf "$comptmp"

echo "== admin plane gate (live /healthz, /metrics, pprof; scrapes byte-stable at quiescence)"
admtmp=$(mktemp -d)
# Build a real binary: `go run` interposes a parent process, so the sim could
# not be reliably killed or reaped from here. The run doubles as a seed
# audit with the admin plane live: determinism must hold while scraped.
go build -o "$admtmp/nebula-sim" ./cmd/nebula-sim
"$admtmp/nebula-sim" -exp fig1b -seed 7 -seed-audit \
    -admin-addr 127.0.0.1:0 -admin-linger 60s \
    >"$admtmp/run.out" 2>"$admtmp/run.err" &
simpid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|^admin: serving on http://||p' "$admtmp/run.err")
    [ -n "$addr" ] && break
    sleep 0.2
done
[ -n "$addr" ] || { echo "ci: admin server never reported a bound address" >&2; exit 1; }
# Poll /statusz until the run reports quiescence: after that point every
# counter is final, so two scrapes must be byte-identical.
state=""
for _ in $(seq 1 300); do
    state=$(curl -sf "http://$addr/statusz" | sed -n '1p')
    case "$state" in *quiescent*) break ;; esac
    sleep 0.2
done
case "$state" in
*quiescent*) ;;
*)
    echo "ci: run never reached quiescence (last statusz line: $state)" >&2
    kill "$simpid" 2>/dev/null || true
    exit 1
    ;;
esac
curl -sf "http://$addr/healthz" | grep -qx 'ok' || {
    echo "ci: /healthz did not answer ok" >&2
    exit 1
}
curl -sf "http://$addr/metrics" >"$admtmp/m1.txt"
curl -sf "http://$addr/metrics" >"$admtmp/m2.txt"
cmp "$admtmp/m1.txt" "$admtmp/m2.txt" || {
    echo "ci: /metrics not byte-stable across two scrapes at quiescence" >&2
    exit 1
}
# Exposition sanity: every non-comment line is `name{labels} value`, and all
# three instrumented layers export families.
if grep -v '^#' "$admtmp/m1.txt" | grep -qvE '^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [-+0-9.eEInfa]+$'; then
    echo "ci: /metrics contains a malformed exposition line:" >&2
    grep -v '^#' "$admtmp/m1.txt" | grep -vE '^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [-+0-9.eEInfa]+$' | head -3 >&2
    exit 1
fi
for fam in nebula_tensor_gemm_total nebula_fed_rounds_total nebula_edgenet_client_events_total; do
    grep -q "^$fam" "$admtmp/m1.txt" || {
        echo "ci: /metrics is missing family $fam" >&2
        exit 1
    }
done
curl -sf "http://$addr/debug/pprof/goroutine?debug=1" | grep -q '^goroutine profile:' || {
    echo "ci: /debug/pprof/goroutine did not return a profile" >&2
    exit 1
}
# The run only reaches quiescence after the audit verdict is printed, so
# this grep cannot race the check above.
grep -q 'seed-audit: OK' "$admtmp/run.err" || {
    echo "ci: seed audit failed with the admin plane live" >&2
    exit 1
}
kill "$simpid" 2>/dev/null || true
wait "$simpid" 2>/dev/null || true
rm -rf "$admtmp"

echo "== span tracing gate (faulty straggler run: /spans scrape byte-matches capture, parents validate, round roots == trace rounds, artifacts identical to tracing off)"
spantmp=$(mktemp -d)
go build -o "$spantmp/nebula-sim" ./cmd/nebula-sim
go build -o "$spantmp/nebula-spans" ./cmd/nebula-spans
go build -o "$spantmp/nebula-trace" ./cmd/nebula-trace
# Traced pass: the straggler experiment over a lossy wire-v2 link with full
# span sampling, flight recorder mounted at /spans, capture written on exit.
"$spantmp/nebula-sim" -exp straggler -devices 6 -proxy 8 -steps 2 \
    -pretrain-epochs 1 -finetune-epochs 1 -local-epochs 1 -seed 7 \
    -faults drop=0.2 -wire -span-sample 1 \
    -spans "$spantmp/spans.jsonl" -trace "$spantmp/traced.jsonl" \
    -admin-addr 127.0.0.1:0 -admin-linger 60s \
    >"$spantmp/traced.out" 2>"$spantmp/run.err" &
spanpid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|^admin: serving on http://||p' "$spantmp/run.err")
    [ -n "$addr" ] && break
    sleep 0.2
done
[ -n "$addr" ] || { echo "ci: span gate: admin server never reported a bound address" >&2; exit 1; }
state=""
for _ in $(seq 1 300); do
    state=$(curl -sf "http://$addr/statusz" | sed -n '1p')
    case "$state" in *quiescent*) break ;; esac
    sleep 0.2
done
case "$state" in
*quiescent*) ;;
*)
    echo "ci: span gate: run never reached quiescence (last statusz line: $state)" >&2
    kill "$spanpid" 2>/dev/null || true
    exit 1
    ;;
esac
# At quiescence the recorder is final, so the live /spans scrape must
# byte-match the capture the run wrote on exit (same snapshot, same codec).
curl -sf "http://$addr/spans" >"$spantmp/scraped.jsonl"
cmp "$spantmp/scraped.jsonl" "$spantmp/spans.jsonl" || {
    echo "ci: /spans scrape differs from the -spans capture at quiescence" >&2
    exit 1
}
# The round-health /statusz section rides the same recorder.
curl -sf "http://$addr/statusz" | grep -q 'round health' || {
    echo "ci: /statusz is missing the round health section" >&2
    exit 1
}
kill "$spanpid" 2>/dev/null || true
wait "$spanpid" 2>/dev/null || true
# Structural validation: nebula-spans -check exits nonzero on any orphaned
# parent, and prints traces/spans/roots/round_roots counts.
"$spantmp/nebula-spans" -check "$spantmp/spans.jsonl" >"$spantmp/check.out" || {
    cat "$spantmp/check.out" >&2
    echo "ci: span capture failed structural validation (orphaned parents)" >&2
    exit 1
}
# Causal completeness: every deadline-paced round must have produced exactly
# one fed.round root span, so root count equals the adaptation trace's
# round count — same run, two independent observers.
roots=$(sed -n 's/.*round_roots=\([0-9][0-9]*\).*/\1/p' "$spantmp/check.out")
rounds=$("$spantmp/nebula-trace" "$spantmp/traced.jsonl" | sed -n 's/^rounds:[[:space:]]*\([0-9][0-9]*\)$/\1/p')
[ -n "$roots" ] && [ -n "$rounds" ] && [ "$roots" = "$rounds" ] || {
    cat "$spantmp/check.out" >&2
    echo "ci: span round roots ($roots) != trace rounds ($rounds)" >&2
    exit 1
}
# Artifact neutrality at the CLI boundary: the identical run with tracing
# (and the admin plane) off must produce byte-identical stdout and trace
# JSONL — the recorder is a pure observer (docs/OBSERVABILITY.md "Tracing").
"$spantmp/nebula-sim" -exp straggler -devices 6 -proxy 8 -steps 2 \
    -pretrain-epochs 1 -finetune-epochs 1 -local-epochs 1 -seed 7 \
    -faults drop=0.2 -wire \
    -trace "$spantmp/base.jsonl" >"$spantmp/base.out" 2>/dev/null
cmp "$spantmp/traced.out" "$spantmp/base.out" || {
    echo "ci: experiment output differs with span tracing on vs off" >&2
    exit 1
}
cmp "$spantmp/traced.jsonl" "$spantmp/base.jsonl" || {
    echo "ci: trace JSONL differs with span tracing on vs off" >&2
    exit 1
}
rm -rf "$spantmp"

echo "== bench smoke (kernel and codec benches compile and run once)"
go test -run '^$' -bench 'BenchmarkGemm|BenchmarkDenseStep|BenchmarkConvStep|BenchmarkWireEncodeTopK' -benchtime 1x . >/dev/null
go test -run '^$' -bench 'BenchmarkTopKMask' -benchtime 1x ./internal/edgenet >/dev/null

echo "== implicit-conv smoke (two shapes; steady-state allocs/op must be 0)"
# The implicit-GEMM path gathers image pixels (through a padded copy of the
# image) straight into arena-backed panels; any heap allocation here means a
# panel or the padded image escaped the arena, the regression the deleted
# column-matrix buffer used to mask. 100 iterations amortize the arena's
# first-use growth to <1 alloc/op. c16x11_8x8 is a cnn-sync module shape.
smoketmp=$(mktemp -d)
go test -run '^$' -bench 'BenchmarkConvGemmImplicit/(c16x32_12x12|c16x11_8x8)$' -benchmem \
    -benchtime 100x ./internal/tensor/ >"$smoketmp/implicit.out"
for shape in c16x32_12x12 c16x11_8x8; do
    grep -q "BenchmarkConvGemmImplicit/$shape" "$smoketmp/implicit.out" || {
        echo "ci: implicit-conv bench $shape did not run" >&2
        exit 1
    }
    allocs=$(awk -v s="BenchmarkConvGemmImplicit/$shape" '$1 == s || index($1, s "-") == 1 {print $(NF-1)}' "$smoketmp/implicit.out")
    [ "$allocs" = "0" ] || {
        cat "$smoketmp/implicit.out" >&2
        echo "ci: implicit-conv path allocates on $shape ($allocs allocs/op); panels must stay in the scratch arena" >&2
        exit 1
    }
done
rm -rf "$smoketmp"

if [ "${1:-}" != "" ]; then
    echo "== seed audit (seed $1)"
    go run ./cmd/nebula-sim -exp fig1b -seed "$1" -seed-audit >/dev/null
fi

echo "ci: all gates passed"
