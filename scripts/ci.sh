#!/usr/bin/env bash
# Tiered local CI gate. Run from anywhere in the repo.
#
#   scripts/ci.sh             # the full gate: lint (fmt, clippy, doc, knobs, bins, symbols, bench) → test → determinism → mc
#   scripts/ci.sh quick       # fmt + clippy + unit tests only (pre-push tier)
#   scripts/ci.sh lint        # fmt --check + clippy -D warnings + rustdoc -D warnings + knob-list agreement + every bench/mc binary run by a stage + inlined-step symbols and the copy's rep movsb + the benchmark's own lint
#   scripts/ci.sh test        # workspace unit/integration tests
#   scripts/ci.sh determinism # regenerate every byte-diffed results/ file and compare (soak, mc_summary, perfgate and the fleet smoke sweep among them)
#   scripts/ci.sh mc          # model checker: every table row exhaustively + mutation gate + replay
#   scripts/ci.sh sanitize    # ThreadSanitizer + Miri pass (needs nightly)
#   scripts/ci.sh loc [--against <parent-checkout>] [file…]  # line counts per crate (or per file), code above / tests below each file's first #[cfg(test)]; --against: the delta to another checkout
#   scripts/ci.sh flake [N=40] [-- <cargo test args>]  # a suite N times (default: the root suite): failures per test name, exit 1 on any
#   scripts/ci.sh pairs <parent-checkout> <change-checkout> [N=10] [workload…]  # alternating benchmark runs → results/BENCH_history.jsonl
#   scripts/ci.sh nightly     # chaos fleet sweep + long collective-test counts + flake 40 + long soak (SOAK_SECONDS, default 600)
#   scripts/ci.sh --fix       # apply rustfmt instead of checking
#
# The workspace is dependency-free by design, so everything runs --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pinned environment for every determinism-gated run: scrub the runtime
# knobs so ambient shell state can't perturb a byte-diffed file, then pin
# the seed explicitly where the bin wants one.
SCRUB=(env -u FOMPI_SEED -u FOMPI_FAULTS -u FOMPI_BATCH -u FOMPI_NOTIFY_DEPTH
    -u FOMPI_RACECHECK -u FOMPI_METRICS -u FOMPI_TELEMETRY
    -u FOMPI_TELEMETRY_RING -u FOMPI_MC_REPLAY)

# ---------------------------------------------------------------- timing
STAGE_NAMES=()
STAGE_SECS=()

run_stage() { # run_stage <name> <fn>
    local name=$1 fn=$2 t0=$SECONDS
    echo "==== stage: $name ===="
    "$fn"
    STAGE_NAMES+=("$name")
    STAGE_SECS+=($((SECONDS - t0)))
}

timing_summary() {
    echo
    echo "== per-stage timing =="
    local i total=0
    for i in "${!STAGE_NAMES[@]}"; do
        printf '  %-14s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
        total=$((total + STAGE_SECS[i]))
    done
    printf '  %-14s %4ds\n' total "$total"
}

# ---------------------------------------------------------------- stages
stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

stage_doc() {
    # Rustdoc's warnings (broken or ambiguous intra-doc links, links from
    # public docs to private items) fail the gate like clippy's.
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q
}

stage_knobs() {
    # The knob list exists once, as `Config::VARS` (plus the model checker's
    # replay variable): SCRUB above and README's knob table must name the
    # same set, or an ambient variable reaches a byte-diffed run.
    local vars scrub readme
    vars=$({
        sed -n '/pub const VARS/,/];/s/.*"\(FOMPI_[A-Z_]*\)".*/\1/p' crates/fabric/src/config.rs
        echo FOMPI_MC_REPLAY
    } | sort)
    scrub=$(printf '%s\n' "${SCRUB[@]}" | grep '^FOMPI_' | sort)
    readme=$(sed -n 's/^| `\(FOMPI_[A-Z_]*\)` .*/\1/p' README.md | sort)
    if [[ $vars != "$scrub" || $vars != "$readme" ]]; then
        echo "knobs: Config::VARS, scripts/ci.sh SCRUB and README's knob table differ:" >&2
        diff <(echo "$vars") <(echo "$scrub") >&2 || true
        diff <(echo "$vars") <(echo "$readme") >&2 || true
        return 1
    fi
}

stage_bins() {
    # Every binary of crates/bench and crates/mc runs in some stage: a row
    # of DETERMINISM below, or soak / mc_summary, which stage_determinism
    # runs itself. A binary no stage runs has asserts that guard nothing.
    local ran=" soak mc_summary " row bin unrun=()
    for row in "${DETERMINISM[@]}"; do
        ran+="${row%%|*} "
    done
    for bin in $({
        sed -n '/^\[\[bin\]\]/,/^name/s/^name = "\(.*\)"/\1/p' crates/bench/Cargo.toml crates/mc/Cargo.toml
        for f in crates/bench/src/bin/*.rs crates/mc/src/bin/*.rs; do basename "$f" .rs; done
    } | sort -u); do
        [[ $ran == *" $bin "* ]] || unrun+=("$bin")
    done
    if ((${#unrun[@]})); then
        echo "bins: no stage runs ${unrun[*]}: give each a DETERMINISM row or delete it" >&2
        return 1
    fi
}

stage_symbols() {
    # The fabric and core keep one clock, virtual time: no wall-clock timer
    # may come back into an op body unnoticed.
    local timers
    timers=$(grep -rn 'Instant' crates/fabric/src crates/core/src || true)
    if [[ -n $timers ]]; then
        echo "symbols: a wall-clock Instant in a virtual-time crate:" >&2
        echo "$timers" >&2
        return 1
    fi
    # The steps an op body (fabric: begin / locate / price / finish, the
    # rank's counter block and the sync-line touch, the idle step of a
    # wait) and a window call
    # (core: the prologue, epilogue, epoch frame and wait loops) are
    # composed of cost nothing only if they are inlined into it: no symbol
    # of theirs may exist in a release binary that links both crates.
    cargo build --offline --release -q -p fompi-bench --bin perfgate
    local steps
    steps=$(nm -C target/release/perfgate | grep -E \
        'fompi_fabric::endpoint::Endpoint::(begin|locate|price|finish|block|idle)(::|$)|fompi_fabric::counters::Counters::(touch|rank)(::|$)|fompi::.*Win>::(admit|resolve|begin|landed|require|enter|leave|spin_until|wait_word|wait_ring|wait_scan)(::|$)' || true)
    if [[ -n $steps ]]; then
        echo "symbols: these steps of an op body / window call are out of line in target/release/perfgate:" >&2
        echo "$steps" >&2
        return 1
    fi
    # The other way round for the segment's bulk copy: on x86_64 both
    # helpers must exist and be `rep movsb`, so a `cfg` slip cannot fall
    # back to the word loop silently.
    if [[ $(uname -m) == x86_64 ]]; then
        local helper
        for helper in copy_in copy_out; do
            if ! objdump -d -C --no-show-raw-insn target/release/perfgate |
                awk -v h="<fompi_fabric::segment::rep_movsb::$helper>:" '
                    $NF == h { body = 1; next } /^$/ { body = 0 } body && /rep movsb/ { found = 1 }
                    END { exit !found }'; then
                echo "symbols: segment::rep_movsb::$helper in target/release/perfgate has no rep movsb" >&2
                return 1
            fi
        done
    fi
}

stage_bench() {
    # benchmark/ is a package of its own (outside the workspace) that calls
    # public functions of crates/: fmt, clippy -D warnings and its unit
    # tests against the current crates/, so a signature change that breaks
    # its pinned surface fails here and not in the benchmark pipeline.
    bash benchmark/run.sh --lint
}

stage_tests() {
    cargo test --offline --workspace -q
    # The allocation budget again in the profile the benchmark runs: the
    # counts must hold in both.
    cargo test --offline --release -q --test alloc_budget
}

# The byte-diffed artifacts of the determinism stage, one row each:
# `bin|args|files`. Every bin runs under the pinned environment at
# FOMPI_SEED=1 and must rewrite its files byte-for-byte; a row with no
# files is a bin that asserts its own invariant. Virtual time is exact, so
# a pinned number has no tolerance: after a deliberate change, rerun the
# row, review `git diff` (it names each moved value) and commit.
#   drift.csv          deterministic classes only (post/start/wait go to
#                      drift_sched.csv, which is restored, not diffed)
#   fig6b … fig8       the simnet series and fig6b_real; the other `_real`
#                      files depend on the schedule and are restored
#   kv_smoke.csv       schedule-independent outcomes of the KV store smoke
#   scope_metrics.*    both exposition forms of the metrics snapshot
#   scope --ablation   armed vs disarmed virtual clocks bit-identical
#   perfgate.json      virtual ns of the primitives and the protocols above
#                      (sender-side or single fixed pairings only: ANY_SOURCE
#                      drain times are schedule-dependent)
#   fleet_summary.json the in-process smoke sweep's stable agents
DETERMINISM=(
    "reproduce|drift|results/drift.csv"
    "reproduce|fig6b fig6c fig7a fig7b fig7c fig8|results/fig6b.csv results/fig6b_real.csv results/fig6c.csv results/fig7a.csv results/fig7b.csv results/fig7c.csv results/fig8.csv"
    "kv_serve|--smoke|results/kv_smoke.csv"
    "scope||results/scope_metrics.prom results/scope_metrics.json"
    "scope|--ablation|"
    "perfgate||results/perfgate.json"
    "fleet|--smoke|results/fleet_summary.json"
)

unmoved() { # unmoved <what ran> <file>… — fail naming the first file that differs from its committed copy
    local what=$1 f
    shift
    for f in "$@"; do
        if ! git diff --quiet -- "$f"; then
            echo "determinism: $f moved after $what" >&2
            git diff --stat -- "$f" >&2
            return 1
        fi
    done
}

stage_determinism() {
    # The protocol table (crates/mc/src/programs.rs) and its two runners.
    # Chaos soak smoke: every program under seeded light/heavy fault plans
    # (the CSV depends on the seed count, so only the default two-seed run
    # is compared; a contended row writes `-` for its fault count). Then
    # the model checker's summary: exploration counts and counterexample
    # schedules are exact functions of the DPOR walk, so any drift is a
    # real change.
    echo "== soak smoke (${SOAK_SEEDS:-2} seeds, every program) =="
    "${SCRUB[@]}" SOAK_SEEDS="${SOAK_SEEDS:-2}" \
        cargo run --offline --release -q -p fompi-mc --bin soak
    if [[ "${SOAK_SEEDS:-2}" == "2" ]]; then
        unmoved soak results/soak.csv
    fi
    echo "== determinism: mc_summary =="
    cargo build --offline --release -q -p fompi-mc --bin mc_summary
    local t0=$SECONDS
    "${SCRUB[@]}" target/release/mc_summary >/dev/null
    echo "mc_summary: $((SECONDS - t0)) s wall"
    unmoved mc_summary results/mc_summary.csv

    local row bin args files
    for row in "${DETERMINISM[@]}"; do
        IFS='|' read -r bin args files <<<"$row"
        echo "== determinism: $bin${args:+ $args} =="
        # shellcheck disable=SC2086 # args and files are word lists
        "${SCRUB[@]}" FOMPI_SEED=1 \
            cargo run --offline --release -q -p fompi-bench --bin "$bin" -- $args >/dev/null
        # shellcheck disable=SC2086
        unmoved "$bin${args:+ $args}" $files
    done
    # drift_sched.csv holds the schedule-dependent classes `reproduce
    # drift` also writes, and the figure row's other `_real` series wait on
    # partner ranks (ROADMAP item 3): not reproducible, so restore the
    # committed copies.
    git checkout -q -- results/drift_sched.csv results/fig6c_real.csv results/fig7a_real.csv \
        results/fig7b_real.csv results/fig7c_real.csv results/fig8_real.csv
}

stage_mc() {
    # Exhaustive interleaving model checker over the protocol table. The
    # integration tests run every row with a model-checked instance to
    # exhaustion at the default bounds (zero violations, `complete=true`)
    # and are the *mutation* gate — the broken-credit-return,
    # dropped-publish-CAS, unvalidated-read-only-commit, version-re-fetch-
    # before-payload and skipped-unlock_all mutants must each yield a
    # counterexample that
    # FOMPI_MC_REPLAY reproduces with its per-rank virtual clocks bit for
    # bit (in-process and out-of-process). results/mc_summary.csv is
    # byte-diffed by the determinism stage.
    echo "== mc: exhaustive table + mutation gate (fompi-mc tests) =="
    "${SCRUB[@]}" cargo test --offline --release -q -p fompi-mc
}

stage_loc() { # stage_loc [--against <parent-checkout>] [file…] — a scoreboard, not a gate
    # `--against`: the same table for another checkout, and this one's
    # delta to it, row by row (the table ROADMAP item 6 asks every PR for).
    if [[ ${1:-} == --against ]]; then
        [[ -d ${2:-}/crates ]] || { echo "usage: scripts/ci.sh loc --against <parent-checkout> [file…]" >&2; return 1; }
        local parent=$2
        shift 2
        # A unit only the parent has (a deleted crate) reads 0 on this
        # side, just above the total.
        awk 'function row(u, c, t) { printf "  %-28s %7d -> %5d %7d -> %5d %+8d %+8d\n", u, code[u], c, test[u], t, c - code[u], t - test[u] }
            FNR == 1 { next }
            FNR == NR { code[$1] = $2; test[$1] = $3; order[++n] = $1; next }
            FNR == 2 { printf "  %-28s %16s %16s %8s %8s\n", "'"$( [[ $# -gt 0 ]] && echo file || echo crate)"'", "code", "tests", "Δcode", "Δtests" }
            $1 == "total" { for (i = 1; i <= n; i++) if (order[i] != "total" && !(order[i] in seen)) row(order[i], 0, 0) }
            { seen[$1]; row($1, $2, $3) }' \
            <(cd "$parent" && stage_loc "$@") <(stage_loc "$@")
        return
    fi
    # Each file is split at its first `#[cfg(test)]` / `#[cfg(loom)]`
    # attribute (`#[cfg(all(test, loom))]` too): code above, tests below;
    # files under tests/ or benches/ are tests throughout. Without
    # arguments: every crate, one row each. With files: one row per file,
    # in the order given; a file this checkout lacks reads 0.
    local by=crate f
    [[ $# -gt 0 ]] && by=file
    { if [[ $# -gt 0 ]]; then
        for f in "$@"; do if [[ -f $f ]]; then printf '%s\n' "$f"; fi; done
    else find crates -name '*.rs' | sort; fi; } |
        xargs awk -v by="$by" -v named="$*" '
            BEGIN { n = split(named, f, " "); for (i = 1; i <= n; i++) { order[i] = f[i]; code[f[i]] = test[f[i]] = 0 } }
            FNR == 1 {
                split(FILENAME, part, "/")
                unit = (by == "crate") ? part[2] : FILENAME
                if (!(unit in code)) { order[++n] = unit; code[unit] = 0; test[unit] = 0 }
                in_test = FILENAME ~ /\/(tests|benches)\//
            }
            /^[[:space:]]*#\[cfg\((all\()?(test|loom)/ { in_test = 1 }
            { if (in_test) test[unit]++; else code[unit]++ }
            END {
                printf "  %-28s %7s %7s %7s\n", by, "code", "tests", "lines"
                for (i = 1; i <= n; i++) {
                    u = order[i]; c += code[u]; t += test[u]
                    printf "  %-28s %7d %7d %7d\n", u, code[u], test[u], code[u] + test[u]
                }
                printf "  %-28s %7d %7d %7d\n", "total", c, t, c + t
            }'
}

stage_flake() { # stage_flake [N=40] [-- <cargo test args>]
    # The Tier-1 flake rate as a command: `cargo test -q` at the root N
    # times (every test binary each time, not just up to the first that
    # fails), the failures tallied by test name. A schedule-dependent test
    # shows as a rate here long before it shows as a red CI run. Anything
    # after `--` goes to `cargo test` and picks another suite:
    # `flake 60 -- -p fompi-apps kv::` is "kv tests 60 of 60".
    local n=40 i bad=0 out names
    if [[ $# -gt 0 && $1 != -- ]]; then
        n=$1
        shift
    fi
    [[ ${1:-} == -- ]] && shift
    names=$(mktemp)
    cargo test --offline -q --no-run "$@"
    for ((i = 1; i <= n; i++)); do
        if ! out=$(cargo test --offline -q --no-fail-fast "$@" 2>&1); then
            bad=$((bad + 1))
            sed -n 's/^---- \(.*\) stdout ----$/\1/p' <<<"$out" | grep . >>"$names" ||
                echo "(a run failed without naming a test)" >>"$names"
        fi
    done
    echo "flake: $bad of $n runs of ${*:-the root suite} failed"
    sort "$names" | uniq -c | sort -rn | sed 's/^/  /'
    rm -f "$names"
    [[ $bad -eq 0 ]]
}

stage_pairs() { # stage_pairs <parent-checkout> <change-checkout> [N=10] [workload…]
    # The paired comparison a perf claim rests on (choosing-metrics §8):
    # N pairs of `benchmark/run.sh --workload W --seed 1 --trace 0`, one run
    # in each checkout, the side that goes first alternating; one line per
    # (workload, end-to-end metric) appended to results/BENCH_history.jsonl
    # and a median [q1, q3] table printed, with the change's quartile
    # distance as a share of its bound (over 100 %: the runs spread too
    # widely to tell, exit 1) and the rejection rule applied (a change
    # median worse than the parent median by more than bound x the parent
    # median: WORSE PAST THE BOUND, exit 1). Workloads, metrics and bounds are read
    # from the change's BENCHMARK.json. Give the two checkouts paths of the
    # same length (PR 14: the build directory alone moves put_duplex) and
    # leave both CPUs alone meanwhile: ~15 s a run, 35 min for the default.
    # SEED=2 repeats the campaign on another seed.
    if [[ $# -lt 2 || ! -f $1/benchmark/run.sh || ! -f $2/benchmark/run.sh ]]; then
        echo "usage: scripts/ci.sh pairs <parent-checkout> <change-checkout> [N=10] [workload…]" >&2
        return 1
    fi
    local parent change n seed=${SEED:-1} history=$PWD/results/BENCH_history.jsonl
    parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) n=${3:-10}
    shift $(($# < 3 ? $# : 3))
    local -a workloads=("$@")
    if [[ ${#workloads[@]} -eq 0 ]]; then
        mapfile -t workloads < <(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$change/BENCHMARK.json")
    fi
    local pr commit raw w i side first second
    pr=$(sed -n '1s/^# ISSUE \([0-9]*\).*/\1/p' "$change/ISSUE.md")
    commit=$(git -C "$parent" rev-parse --short HEAD)+1
    raw=$(mktemp -d)
    # Build both sides before the first timed run.
    for side in "$parent" "$change"; do (cd "$side" && bash benchmark/run.sh --list >/dev/null); done
    for w in "${workloads[@]}"; do
        for ((i = 0; i < n; i++)); do
            if ((i % 2 == 0)); then first=parent second=change; else first=change second=parent; fi
            for side in $first $second; do
                (cd "${!side}" && bash benchmark/run.sh --workload "$w" --seed "$seed" --trace 0 2>/dev/null) |
                    tail -n 1 | sed "s/^/$w $i $side /" >>"$raw/runs"
            done
            echo "pairs: $w $((i + 1))/$n"
        done
    done
    echo "pairs: every run's result line is in $raw/runs"
    # "name unit better bound" of every end-to-end metric (the lines with a bound).
    sed -n 's/.*{"name": "\([^"]*\)", "unit": "\([^"]*\)", "better": "\([^"]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3 \4/p' \
        "$change/BENCHMARK.json" >"$raw/metrics"
    awk -v pr="${pr:-0}" -v commit="$commit" -v seed="$seed" -v history="$history" '
        function num(x,   s) { s = sprintf("%.6f", x); sub(/0+$/, "", s); sub(/\.$/, "", s); return s }
        function quantile(side, q,   m, pos, lo) { # linear interpolation over sorted v[side, 1..cnt]
            m = cnt[side]; pos = 1 + (m - 1) * q; lo = int(pos)
            return lo >= m ? v[side, m] : v[side, lo] + (pos - lo) * (v[side, lo + 1] - v[side, lo])
        }
        function sorted(side,   i, j, t) {
            for (i = 2; i <= cnt[side]; i++)
                for (j = i; j > 1 && v[side, j - 1] > v[side, j]; j--) {
                    t = v[side, j]; v[side, j] = v[side, j - 1]; v[side, j - 1] = t
                }
        }
        FNR == NR { unit[$1] = $2; better[$1] = $3; bound[$1] = $4; order[++nm] = $1; next }
        {
            w = $1; pair = $2; side = $3
            if (!(w in seen)) { seen[w] = 1; worder[++nw] = w }
            if ($0 !~ /"correct": true/ || $0 !~ /"failed": 0[,}]/) bad[w]++
            for (k = 1; k <= nm; k++) {
                m = order[k]
                if (match($0, "\"" m "\": \\{\"value\": [-0-9.eE+]+")) {
                    x = substr($0, RSTART, RLENGTH); sub(/.*: /, "", x)
                    val[w, m, side, pair] = x + 0; if (pair + 1 > pairs[w]) pairs[w] = pair + 1
                }
            }
        }
        END {
            printf "  %-10s %-20s %36s %36s %8s %6s %7s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "spread"
            for (a = 1; a <= nw; a++) for (k = 1; k <= nm; k++) {
                w = worder[a]; m = order[k]; wins = 0; cnt["parent"] = cnt["change"] = 0
                for (p = 0; p < pairs[w]; p++) {
                    if (!((w, m, "parent", p) in val) || !((w, m, "change", p) in val)) continue
                    pv = val[w, m, "parent", p]; cv = val[w, m, "change", p]
                    v["parent", ++cnt["parent"]] = pv; v["change", ++cnt["change"]] = cv
                    if (better[m] == "lower" ? cv < pv : cv > pv) wins++
                }
                if (!cnt["parent"]) continue
                sorted("parent"); sorted("change")
                pm = quantile("parent", 0.5); cm = quantile("change", 0.5)
                # The steadiness rule: the quartile distance of the change
                # as a share of what the bound allows, which is bound x the
                # PARENT median. ops_per_s of a change that got k times
                # faster must therefore be k times steadier, relatively,
                # than the bound reads.
                spread = pm ? (quantile("change", 0.75) - quantile("change", 0.25)) / (bound[m] * pm) : 0
                if (spread > 1) wide[w] = 1
                # The rejection rule: the change median worse than the
                # parent median by more than bound x the parent median.
                worse = pm ? (better[m] == "lower" ? cm - pm : pm - cm) / (bound[m] * pm) : 0
                if (worse > 1) past[w] = 1
                printf "  %-10s %-20s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g] %+7.1f%% %3d/%d %6.0f%%%s%s%s\n", w, m, \
                    pm, quantile("parent", 0.25), quantile("parent", 0.75), \
                    cm, quantile("change", 0.25), quantile("change", 0.75), \
                    pm ? 100 * (cm - pm) / pm : 0, wins, cnt["parent"], 100 * spread, \
                    (spread > 1 ? "  RUNS SPREAD PAST THE BOUND" : ""), (worse > 1 ? "  WORSE PAST THE BOUND" : ""), \
                    (bad[w] ? "  FAILED OPS OR WRONG RESULT" : "")
                printf "{\"pr\": %d, \"commit\": \"%s\", \"workload\": \"%s\", \"seed\": %d, \"metric\": \"%s\", \"unit\": \"%s\", \"pairs\": %d, \"parent_median\": %s, \"change_median\": %s, \"change_wins\": %d}\n", \
                    pr, commit, w, seed, m, unit[m], cnt["parent"], num(pm), num(cm), wins >>history
            }
            for (w in bad) if (bad[w]) failed = 1 # the lookup in the table above creates empty entries
            for (w in wide) failed = 1
            for (w in past) failed = 1
            exit failed
        }' "$raw/metrics" "$raw/runs"
}

stage_sanitize() {
    # Opt-in because it needs a nightly toolchain; each tool degrades to a
    # loud skip when unavailable so the stage is safe to run anywhere.
    #
    # Documented skip-list (why not the whole workspace):
    #   - TSan runs the fompi-fabric unit tests and its segment integration
    #     test only: the notify ring, stamped cells, batch counters, and
    #     shim locks are where the hand-rolled atomics live (the completion
    #     horizons are no longer among them: plain rank-private cells on a
    #     `!Sync` endpoint). Full-workspace soak under TSan is ~50x and
    #     times out CI.
    #   - Miri runs the same two targets (raw segment pointers, Vyukov
    #     ring). Miri cannot run inline assembly, so it runs the segment
    #     copy's portable loop (`cfg(miri)`), not the `rep movsb` x86_64
    #     runs natively: `--test proptest_segment` is there for that loop's
    #     byte-view `unsafe`, which its span sweep hits at every offset.
    #     TSan does not see inside the asm either: a race on a bulk span
    #     through `Segment::read` / `write` is invisible to it. The lib
    #     tests `the_portable_copy_*` / `a_racing_portable_read_*` call the
    #     portable loop directly at full size, so TSan (and the test tier,
    #     natively) still check it on x86_64.
    #     The upper crates are safe Rust over these primitives — including
    #     fompi-mc, whose scheduler gate is std Mutex/Condvar only (its
    #     interleaving coverage comes from the mc stage, not sanitizers).
    #   - Loom models are cfg-gated (`--cfg loom`) and need loom as a
    #     local dev-dependency; the workspace is dependency-free, so they
    #     run on developer machines, not here. Current models: the notify
    #     ring (fompi-fabric), the mesh batched credit return
    #     (fompi-rmc, `cargo test -p fompi-rmc ... loom_`), and the
    #     collectives' arrive / release / park rendezvous (fompi-runtime;
    #     written for PR 14 without loom at hand — not yet run once).
    if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
        echo "sanitize: no nightly toolchain installed; skipping (rustup toolchain install nightly)"
        return 0
    fi
    local host
    host=$(rustc -vV | sed -n 's/^host: //p')
    echo "== ThreadSanitizer: fompi-fabric unit tests + segment integration test =="
    if rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test --offline -Zbuild-std --target "$host" \
            -p fompi-fabric --lib --test proptest_segment -q
    else
        echo "sanitize: nightly rust-src missing; skipping TSan (rustup component add rust-src --toolchain nightly)"
    fi
    echo "== Miri: fompi-fabric unit tests + segment integration test =="
    if rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri (installed)'; then
        # Seeded PRNG + virtual clock means Miri needs no -Zmiri-disable flags.
        cargo +nightly miri test --offline -p fompi-fabric --lib --test proptest_segment -q
    else
        echo "sanitize: nightly miri missing; skipping (rustup component add miri --toolchain nightly)"
    fi
    echo "sanitize stage done."
}

stage_nightly() {
    # Chaos fleet sweep: every agent re-run under an armed seeded fault
    # plan; tail-latency-under-failure lands in results/fleet_chaos.json
    # (the workflow uploads it as the nightly artifact).
    echo "== fleet chaos sweep =="
    "${SCRUB[@]}" cargo run --offline --release -q -p fompi-bench --bin fleet -- --chaos

    # The oversubscribed long counts of the collective engine's tests (a
    # futex sleep per round: too slow for the test tier's debug build).
    echo "== runtime collectives, long counts =="
    cargo test --offline --release -q -p fompi-runtime -- --ignored

    # Tier-1 must not flip a coin: any failure in 40 runs is a finding.
    echo "== root suite flake rate =="
    stage_flake

    # Long soak: keep feeding fresh seed batches until the deadline.
    echo "== soak long mode (${SOAK_SECONDS:-600}s) =="
    SOAK_SECONDS="${SOAK_SECONDS:-600}" \
        cargo run --offline --release -q -p fompi-mc --bin soak
}

# ---------------------------------------------------------------- driver
usage() { # the header: every comment line after the shebang, up to the first other line
    awk 'NR == 1 { next } !/^#/ { exit } { sub(/^# ?/, ""); print }' "$0"
}

mode="${1:-all}"
case "$mode" in
--fix)
    cargo fmt --all
    exit 0
    ;;
quick)
    run_stage fmt stage_fmt
    run_stage clippy stage_clippy
    run_stage tests stage_tests
    timing_summary
    echo
    echo "== lines of code (scripts/ci.sh loc) =="
    stage_loc
    echo "quick tier passed."
    ;;
lint)
    run_stage fmt stage_fmt
    run_stage clippy stage_clippy
    run_stage doc stage_doc
    run_stage knobs stage_knobs
    run_stage bins stage_bins
    run_stage symbols stage_symbols
    run_stage bench stage_bench
    ;;
test)
    run_stage tests stage_tests
    ;;
determinism)
    run_stage determinism stage_determinism
    ;;
mc)
    run_stage mc stage_mc
    ;;
sanitize)
    run_stage sanitize stage_sanitize
    ;;
loc)
    stage_loc "${@:2}"
    ;;
flake)
    stage_flake "${@:2}"
    ;;
pairs)
    stage_pairs "${@:2}"
    ;;
nightly)
    run_stage nightly stage_nightly
    timing_summary
    ;;
all)
    run_stage fmt stage_fmt
    run_stage clippy stage_clippy
    run_stage doc stage_doc
    run_stage knobs stage_knobs
    run_stage bins stage_bins
    run_stage symbols stage_symbols
    run_stage bench stage_bench
    run_stage tests stage_tests
    run_stage determinism stage_determinism
    run_stage mc stage_mc
    timing_summary
    echo "CI gate passed."
    ;;
*)
    echo "ci.sh: unknown mode '$mode'" >&2
    usage >&2
    exit 1
    ;;
esac
