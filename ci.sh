#!/usr/bin/env bash
# CI gate: vet plus the full test suite under the race detector.
# The parallel search engine and the memoized compile caches are
# concurrency-heavy; every change must keep this script green.
set -euo pipefail
cd "$(dirname "$0")"

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted="$(gofmt -l $(git ls-files '*.go'))"
if [[ -n "${unformatted}" ]]; then
  echo "gofmt -l lists unformatted files:"
  echo "${unformatted}"
  exit 1
fi

echo "== builtin-shadowing guard =="
# Shadowing a Go builtin (cap, len, new, ...) compiles fine but silently
# disables the builtin for the rest of the scope; it has caused real
# confusion here (countSpace's space cap). Ban declarations and parameters
# named after the common offenders. min/max are excluded: they are
# conventional local names throughout the repo and predate the builtins.
shadow_pat='(cap|len|new|copy|make|append|delete)'
if grep -rnE "(^|[^.[:alnum:]_])${shadow_pat}[[:space:]]*(:=|= [^=])" --include='*.go' . ||
   grep -rnE "[(,][[:space:]]*${shadow_pat}[[:space:]]+[*[]?[A-Za-z]" --include='*.go' .; then
  echo "identifier shadows a Go builtin (see above); rename it"
  exit 1
fi

echo "== go test -race =="
go test -race ./...

echo "== inlinelint (examples must be error-clean) =="
# The shipped MinC programs are the reference corpus for "no error
# findings": an error-severity lint regression shows up here before
# anywhere else. Warning/info interproc findings are legitimate on the
# examples (e.g. collatz reads @peak on the zero-trip-loop path), so the
# gate is the -severity error threshold, not emptiness at every severity.
lint_out="$(go run ./cmd/inlinelint -severity error -check examples/minc/*.minc examples/minc/linked/*.minc testdata/matrixsum.minc)"
if [[ -n "${lint_out}" ]]; then
  echo "${lint_out}"
  echo "inlinelint reported error findings on the example corpus"
  exit 1
fi

echo "== interproc summary fuzz smoke =="
# A handful of executions of the cached-vs-scratch differential fuzzer
# (full seed corpus runs under `go test -race ./...` above).
go test -run '^$' -fuzz FuzzInterprocSummaries -fuzztime 30x ./internal/analysis/interproc >/dev/null

echo "== delta-engine bench smoke =="
# One iteration each: catches compile errors or assertion failures in the
# delta-vs-full, config-identity, compile miss-path and in-process
# search-corpus benchmarks without paying bench time. The search-corpus
# pass must also stay under 1.5M allocations: its inlining-tree walk
# allocates per search, not per tree node (about 0.46M at the time of
# writing; 4.08M when every node allocated its own memory).
go test -run '^$' -bench 'DeltaVsFull|ConfigKey|FnCacheColdVsWarm|CycleRepriceVsReinterp' -benchtime=1x . >/dev/null
go test -run '^$' -bench 'ICacheNaive|ICacheIndexed' -benchtime=1x ./internal/interp >/dev/null
go test -run '^$' -bench 'CompileMissPath' -benchtime=1x ./internal/compile >/dev/null
search_bench="$(go test -run '^$' -bench 'SearchCorpus' -benchtime=1x ./internal/search)"
search_allocs="$(awk '/^BenchmarkSearchCorpus/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }' <<<"${search_bench}")"
if [[ -z "${search_allocs}" || "${search_allocs}" -gt 1500000 ]]; then
  echo "${search_bench}"
  echo "BenchmarkSearchCorpus allocated ${search_allocs:-an unknown number of} objects per pass; the bound is 1500000"
  exit 1
fi

echo "== fn content cache persistence smoke =="
# A warm -cache-dir rerun must reproduce the cold run's stdout byte for
# byte.
fncache_dir="$(mktemp -d)"
trap 'rm -rf "${fncache_dir}"' EXIT
cold_out="$(go run ./cmd/mincc -inline optimal -S -cache-dir "${fncache_dir}" testdata/matrixsum.minc 2>/dev/null)"
warm_out="$(go run ./cmd/mincc -inline optimal -S -cache-dir "${fncache_dir}" testdata/matrixsum.minc 2>/dev/null)"
if [[ "${cold_out}" != "${warm_out}" ]]; then
  echo "warm -cache-dir rerun changed mincc stdout:"
  diff <(echo "${cold_out}") <(echo "${warm_out}") || true
  exit 1
fi

echo "== linked and relink fuzz/bench smokes =="
# One iteration of the plan-build scaling benchmark (all four linked
# profiles, including the 10x/30x mega-modules) catches linker or generator
# regressions without paying search time; a few executions of the
# random-edit-script relink differential fuzzer (the seed corpus runs in
# full under `go test -race ./...` above); one iteration of the
# edit-one-TU bench to catch assertion failures without paying bench time.
go test -run '^$' -bench 'LinkedPlanBuildScale' -benchtime=1x ./internal/link >/dev/null
go test -run '^$' -fuzz FuzzRelinkDifferential -fuzztime 30x ./internal/link >/dev/null
go test -run '^$' -bench 'RelinkEditOneTU' -benchtime=1x ./internal/link >/dev/null

echo "== inlined service smoke =="
# Boot the daemon on an ephemeral port, replay a scaled corpus against it
# with the load harness in verify mode (cross-client byte-identity plus a
# local single-threaded recompute of every search), then SIGTERM and
# require a clean drain. The race-mode service tier itself runs above as
# part of `go test -race ./...` (internal/server + daemon_test.go).
inlined_dir="$(mktemp -d)"
trap 'rm -rf "${fncache_dir}" "${inlined_dir}"' EXIT
go build -o "${inlined_dir}/inlined" ./cmd/inlined
go build -o "${inlined_dir}/inlineload" ./cmd/inlineload
"${inlined_dir}/inlined" -addr 127.0.0.1:0 -cache-dir "${inlined_dir}/store" \
  2>"${inlined_dir}/inlined.log" &
inlined_pid=$!
inlined_addr=""
for _ in $(seq 1 100); do
  inlined_addr="$(sed -n 's#^inlined: listening on http://##p' "${inlined_dir}/inlined.log")"
  [[ -n "${inlined_addr}" ]] && break
  sleep 0.1
done
if [[ -z "${inlined_addr}" ]]; then
  echo "inlined did not report a listen address:"
  cat "${inlined_dir}/inlined.log"
  kill "${inlined_pid}" 2>/dev/null || true
  exit 1
fi
if ! "${inlined_dir}/inlineload" -addr "${inlined_addr}" -smoke; then
  echo "inlineload smoke replay failed against ${inlined_addr}"
  kill "${inlined_pid}" 2>/dev/null || true
  exit 1
fi
# Linked-session replay: two clients drive the same edit-patch-search
# script through their own /link sessions; -verify byte-compares every
# step across clients and against a cold single-threaded link+search.
if ! "${inlined_dir}/inlineload" -addr "${inlined_addr}" -linked linked-tiny -clients 2 -steps 4 -verify; then
  echo "inlineload linked replay failed against ${inlined_addr}"
  kill "${inlined_pid}" 2>/dev/null || true
  exit 1
fi
kill -TERM "${inlined_pid}"
if ! wait "${inlined_pid}"; then
  echo "inlined exited non-zero after SIGTERM:"
  cat "${inlined_dir}/inlined.log"
  exit 1
fi
if ! grep -q "drained" "${inlined_dir}/inlined.log"; then
  echo "inlined log missing drain confirmation:"
  cat "${inlined_dir}/inlined.log"
  exit 1
fi

echo "== reference evaluator: default vs -check =="
# -check runs every CLI on the reference evaluator: each configuration is
# compiled fresh with IR invariants verified after every inline step and
# opt pass; no function cache, delta engine, shard or relink replay, or
# interprocedural summary cache. Every fast path must reproduce
# its whole stdout byte for byte (counters and cache statistics go to
# stderr), and a checked run fails loudly, with stage/pass attribution, if
# any pipeline step breaks the IR.
ref_bin="$(mktemp -d)"
trap 'rm -rf "${fncache_dir}" "${inlined_dir}" "${ref_bin}"' EXIT
for tool in inlinesearch inlinetune mincc inlinelint inlinebench; do
  go build -o "${ref_bin}/${tool}" "./cmd/${tool}"
done
# ref_gate TOOL ARGS...: TOOL ARGS and TOOL -check ARGS must print the same
# stdout, and the checked run must succeed.
ref_gate() {
  local tool="$1"
  shift
  local fast ref
  fast="$("${ref_bin}/${tool}" "$@" 2>/dev/null)" || true
  if ! ref="$("${ref_bin}/${tool}" -check "$@" 2>"${ref_bin}/check.err")"; then
    echo "${tool} -check $*: failed"
    cat "${ref_bin}/check.err"
    exit 1
  fi
  if [[ "${fast}" != "${ref}" ]]; then
    echo "${tool} $*: default and -check disagree:"
    diff <(echo "${fast}") <(echo "${ref}") || true
    exit 1
  fi
}
for f in examples/minc/*.minc testdata/matrixsum.minc; do
  ref_gate inlinesearch -max-space 65536 "$f"
done
# The tuners derive each probe's size and cycle handles from the round's
# base; -check prices every probe as a whole configuration instead.
for f in examples/minc/*.minc; do
  ref_gate inlinetune -objective weighted "$f"
  ref_gate inlinetune -objective cycles "$f"
  ref_gate inlinetune -groups -incremental "$f"
done
# The exact-component polish runs the optimal search under a tuned prefix;
# its compilation count is on stdout, so both modes must count alike.
ref_gate inlinetune -exact-components 4096 testdata/matrixsum.minc
pareto_out="$("${ref_bin}/inlinetune" -objective pareto examples/minc/collatz.minc 2>/dev/null)"
if ! grep -q 'lambda' <<<"${pareto_out}"; then
  echo "pareto sweep printed no frontier:"
  echo "${pareto_out}"
  exit 1
fi
ref_gate inlinelint examples/minc/*.minc testdata/lint/interproc/*.minc
ref_gate mincc -inline optimal -S -run trace -arg 6 testdata/matrixsum.minc
# Cross-module (LTO-style) mode: the whole example corpus linked into one
# module (every example exports `entry`, so duplicate exports exercise the
# -link-dup rename path); -check solves it on one merged compiler.
link_files=(examples/minc/*.minc examples/minc/linked/*.minc)
ref_gate inlinesearch -link -link-dup rename "${link_files[@]}"
# grep reads the whole output: under pipefail, grep -q exiting at the first
# match could kill inlinesearch with SIGPIPE and fail this gate at random.
if ! "${ref_bin}/inlinesearch" -link -link-dup rename "${link_files[@]}" 2>/dev/null | grep '^optimal:' >/dev/null; then
  echo "linked search did not report an optimum"
  exit 1
fi
# Incremental re-link replays: warm sessions replay unchanged components
# from the content-keyed result cache; -check links cold at every step.
# edits_mixed.txt interleaves search and tune steps on one session, and
# both CLIs replay it through the same driver: at default flags their
# stdout must match.
relink_args=(-link-dup rename examples/minc/linked/app.minc examples/minc/linked/mathlib.minc)
mixed=examples/minc/linked/edits_mixed.txt
ref_gate inlinesearch -relink examples/minc/linked/edits.txt "${relink_args[@]}"
ref_gate inlinetune -relink examples/minc/linked/edits_tune.txt -rounds 3 "${relink_args[@]}"
ref_gate inlinesearch -relink "${mixed}" "${relink_args[@]}"
ref_gate inlinetune -relink "${mixed}" "${relink_args[@]}"
if ! diff <("${ref_bin}/inlinesearch" -relink "${mixed}" "${relink_args[@]}" 2>/dev/null) \
          <("${ref_bin}/inlinetune" -relink "${mixed}" "${relink_args[@]}" 2>/dev/null); then
  echo "inlinesearch and inlinetune replay ${mixed} differently"
  exit 1
fi
# Every experiment but linked-case (whose checked merged search is 456k
# verified evaluations) over a scaled corpus.
bench_ids="$("${ref_bin}/inlinebench" -list | grep -vx 'linked-case' | paste -sd, -)"
ref_gate inlinebench -exp "${bench_ids}" -scale 0.05

echo "== experiments golden (scale 0.05) =="
# The gate above proves the fast paths agree with the reference evaluator,
# but both run the same inliner and optimizer, so a change to either that
# moved the answers would pass it. This pins the answers themselves: the
# stdout of the same run (~3 s) must equal the committed golden. Regenerate
# the golden only in a change meant to move the numbers, and say why.
golden=testdata/experiments_scale0.05.golden
if ! diff <("${ref_bin}/inlinebench" -exp "${bench_ids}" -scale 0.05 2>/dev/null) "${golden}"; then
  echo "inlinebench -exp <all but linked-case> -scale 0.05 stdout differs from ${golden}"
  exit 1
fi

echo "== full experiment run =="
# The golden above prices a few hundred configurations; the full run
# (~10 s at -jobs 2) prices 167,593. Its stdout must equal
# experiments_full_output.txt, and the work it reports on stderr must
# equal experiments_full_stderr.txt: the config-cache and cycle-pricer
# lines, the delta engine's evaluations, and the misses of the function
# and content caches. Timing lines and the hit counts of those two caches
# are left out: they measure how an answer was reached, not which
# configurations and closures were compiled.
full_err="${ref_bin}/full.err"
if ! diff <("${ref_bin}/inlinebench" -exp all -jobs 2 2>"${full_err}") experiments_full_output.txt; then
  echo "inlinebench -exp all -jobs 2 stdout differs from experiments_full_output.txt"
  exit 1
fi
full_work() {
  sed -n -e '/^config cache: /p' -e '/^cycle pricer: /p' \
    -e 's/^delta engine: \([0-9]*\) delta evals.*/delta engine: \1 delta evals/p' \
    -e 's/^\(function cache\|fn content cache\): .* \/ \([0-9]*\) misses.*/\1: \2 misses/p' "$1"
}
if ! diff <(full_work "${full_err}") <(full_work experiments_full_stderr.txt); then
  echo "inlinebench -exp all -jobs 2 counters differ from experiments_full_stderr.txt"
  exit 1
fi

echo "== tuner CLI goldens =="
# No experiment runs the group-toggle, incremental or exact-component
# tuner, the single-file cycle objectives or `mincc -inline tune`; these
# goldens pin their stdout on the examples. Regenerate one only in a change
# meant to move its answers, and say why.
tune_golden() {
  local golden="testdata/tune/$1.golden"
  shift
  if ! diff <("${ref_bin}/$1" "${@:2}" 2>/dev/null) "${golden}"; then
    echo "$* stdout differs from ${golden}"
    exit 1
  fi
}
for f in examples/minc/*.minc; do
  b="$(basename "$f" .minc)"
  tune_golden "$b.groups" inlinetune -groups "$f"
  tune_golden "$b.incremental" inlinetune -incremental "$f"
  tune_golden "$b.groups-incremental-exact" inlinetune -groups -incremental -exact-components 4096 "$f"
  tune_golden "$b.cycles" inlinetune -objective cycles "$f"
  tune_golden "$b.pareto" inlinetune -objective pareto "$f"
done
tune_golden link inlinetune -link -link-dup rename examples/minc/*.minc \
  examples/minc/linked/app.minc examples/minc/linked/mathlib.minc
tune_golden mincc-tune-matrixsum mincc -inline tune -S testdata/matrixsum.minc

echo "== inlined IR goldens =="
# Whole-module builds name every block the inliner splices in (callee
# copies, continuations, numbered on collision); closure compiles leave
# them unnamed. These goldens pin the printed IR and listing of -Os and
# optimal builds, block names included. cactubssn_file002.ir is a
# generated SPEC-like unit whose -Os labels inline fn006 three times into
# fn005, so numbered names (fn006.head2, fn006.head3) appear.
for f in examples/minc/*.minc testdata/matrixsum.minc testdata/inline/cactubssn_file002.ir; do
  b="$(basename "$f")"
  b="${b%.*}"
  for mode in os optimal; do
    golden="testdata/inline/${b}.${mode}.golden"
    if ! diff <("${ref_bin}/mincc" -inline "${mode}" -emit-ir -S "$f" 2>/dev/null) "${golden}"; then
      echo "mincc -inline ${mode} -emit-ir -S $f stdout differs from ${golden}"
      exit 1
    fi
  done
done

echo "CI OK"
