#!/usr/bin/env bash
# Per-pass FM throughput regression gate.
#
#   usage: scripts/perf_gate.sh [--bless] [reps]
#
# Snapshots the archived BENCH_fm.json baseline, re-runs
# examples/fm_pass_bench (which rewrites the archive in place), and
# compares every per-pass millisecond series — any gauge whose name
# contains `pass_ms` — new vs old. The series list is discovered from
# the snapshots themselves, not hardcoded, and an unmatched series in
# either direction is a hard failure: a baseline series the fresh run
# no longer reports means a bench was dropped or renamed and part of
# the hot path is silently ungated, and a fresh series the baseline
# lacks has no reference to regress against. Any matched series more
# than 15% slower fails the gate.
#
# The deterministic gauges the archive also carries — every `cut_*`
# size, `rent100k_cut`, `rent100k_passes`, `kway_cost` and
# `kway_passes` — must equal the baseline exactly: they are functions
# of the seeds alone, so any difference is a behaviour change, not
# noise, and a timing compared across different work means nothing.
# They are discovered and matched the same way as the timed series.
#
# The baseline only moves on purpose. Without --bless the old baseline
# is restored after every run, pass or fail, so a string of regressions
# each just under 15% cannot compound into a drifting reference. With
# --bless the fresh numbers are archived as the new baseline (after the
# same comparison is printed, and whatever its verdict) and the script
# exits 0; commit the archive to re-baseline deliberately.
#
# The keys are per-pass averages, not whole-run wall times, so a
# change in pass count from algorithmic work does not masquerade as a
# throughput change. The 15% tolerance absorbs shared-runner noise;
# real regressions from structure changes (the CSR arenas bought 2-7x)
# clear it by an order of magnitude.
#
# Portability: bash + POSIX awk only, like scripts/strip_timing.sh —
# no jq (not in the hermetic toolchain image), no GNU-only sed flags.
set -euo pipefail

cd "$(dirname "$0")/.."

BLESS=0
if [[ "${1-}" == "--bless" ]]; then
  BLESS=1
  shift
fi
REPS="${1:-2}"
BASELINE=BENCH_fm.json
TOLERANCE=1.15

if [[ ! -s "$BASELINE" ]]; then
  echo "error: no archived baseline at $BASELINE (run the bench once to seed it)" >&2
  exit 2
fi

# field <file> <key>: the numeric value of `"key": <number>` in a flat
# metrics-snapshot JSON file (keys are unique per file by construction).
# Prints nothing when the key is absent.
field() {
  awk -v key="\"$2\":" '
    index($0, key) {
      v = substr($0, index($0, key) + length(key))
      gsub(/[ ,]/, "", v)
      print v
      exit
    }' "$1"
}

# series <file>: every per-pass millisecond series in a snapshot,
# sorted — any `"…pass_ms…":` gauge key.
series() {
  awk '
    {
      s = $0
      while (match(s, /"[A-Za-z0-9_]*pass_ms[A-Za-z0-9_]*"[ ]*:/)) {
        k = substr(s, RSTART + 1)
        print substr(k, 1, index(k, "\"") - 1)
        s = substr(s, RSTART + RLENGTH)
      }
    }' "$1" | sort -u
}

# exact <file>: every deterministic gauge in a snapshot, sorted.
exact() {
  awk '
    {
      s = $0
      while (match(s, /"(cut_[A-Za-z0-9_]*|rent100k_cut|rent100k_passes|kway_cost|kway_passes)"[ ]*:/)) {
        k = substr(s, RSTART + 1)
        print substr(k, 1, index(k, "\"") - 1)
        s = substr(s, RSTART + RLENGTH)
      }
    }' "$1" | sort -u
}

# The committed baseline comes back on every exit path — a pass, a
# regression, or the bench itself failing — unless --bless keeps the
# fresh numbers.
old=$(mktemp)
keep_fresh=0
trap '[[ "$keep_fresh" -eq 1 ]] || cp "$old" "$BASELINE"; rm -f "$old"' EXIT
cp "$BASELINE" "$old"

cargo run --release --example fm_pass_bench -- "$REPS"

mapfile -t old_keys < <(series "$old")
mapfile -t new_keys < <(series "$BASELINE")

status=0
if [[ ${#new_keys[@]} -eq 0 ]]; then
  echo "error: fresh bench run reported no pass_ms series" >&2
  status=1
fi
# Unmatched series in either direction are fatal, not seeded over.
only_old=$(comm -23 <(printf '%s\n' "${old_keys[@]-}") <(printf '%s\n' "${new_keys[@]-}"))
only_new=$(comm -13 <(printf '%s\n' "${old_keys[@]-}") <(printf '%s\n' "${new_keys[@]-}"))
if [[ -n "$only_old" ]]; then
  echo "error: baseline series missing from the fresh run (dropped or renamed bench?):" >&2
  printf '  %s\n' $only_old >&2
  status=1
fi
if [[ -n "$only_new" ]]; then
  echo "error: fresh series absent from the baseline (seed it deliberately and commit):" >&2
  printf '  %s\n' $only_new >&2
  status=1
fi

for key in "${new_keys[@]-}"; do
  [[ -n "$key" ]] || continue
  o=$(field "$old" "$key")
  n=$(field "$BASELINE" "$key")
  # Unmatched keys are already fatal above; compare only the matched.
  [[ -n "$o" && -n "$n" ]] || continue
  if awk -v n="$n" -v o="$o" -v t="$TOLERANCE" 'BEGIN { exit !(n <= o * t) }'; then
    awk -v k="$key" -v n="$n" -v o="$o" \
      'BEGIN { printf "ok: %-24s %10.3f ms/pass (baseline %10.3f)\n", k, n, o }'
  else
    awk -v k="$key" -v n="$n" -v o="$o" -v t="$TOLERANCE" \
      'BEGIN { printf "REGRESSION: %s %.3f ms/pass vs baseline %.3f (> %d%% tolerance)\n", \
               k, n, o, (t - 1) * 100 + 0.5 }' >&2
    status=1
  fi
done

mapfile -t old_exact < <(exact "$old")
mapfile -t new_exact < <(exact "$BASELINE")
if [[ ${#new_exact[@]} -eq 0 ]]; then
  echo "error: fresh bench run reported no deterministic gauges" >&2
  status=1
fi
unmatched=$(comm -3 <(printf '%s\n' "${old_exact[@]-}") <(printf '%s\n' "${new_exact[@]-}"))
if [[ -n "$unmatched" ]]; then
  echo "error: deterministic gauges present on one side only:" >&2
  printf '  %s\n' $unmatched >&2
  status=1
fi
for key in "${new_exact[@]-}"; do
  [[ -n "$key" ]] || continue
  o=$(field "$old" "$key")
  n=$(field "$BASELINE" "$key")
  [[ -n "$o" && -n "$n" ]] || continue
  if awk -v n="$n" -v o="$o" 'BEGIN { exit !(n == o) }'; then
    printf 'ok: %-24s %10s (exact)\n' "$key" "$n"
  else
    echo "CHANGED: $key = $n vs baseline $o (deterministic, must match exactly)" >&2
    status=1
  fi
done

if [[ "$BLESS" -eq 1 && ${#new_keys[@]} -gt 0 ]]; then
  keep_fresh=1
  echo "baseline re-blessed: fresh numbers archived to $BASELINE (verdict above is against the previous baseline)"
  exit 0
fi
if [[ "$status" -ne 0 ]]; then
  echo "perf gate FAILED; baseline left unchanged" >&2
  exit 1
fi
echo "perf gate passed; baseline left unchanged (re-baseline with --bless)"
