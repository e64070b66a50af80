#!/usr/bin/env bash
# Parent-vs-change comparison on the end-to-end benchmark (BENCHMARK.json).
#
# Usage: scripts/bench_compare.sh <parent-rev> [pairs, default 10]
#
# Exports <parent-rev> into a temporary directory and builds
# chronicle-benchmark there and in this checkout, each with its own
# CARGO_TARGET_DIR. For pair i = 1..pairs it runs every workload named in
# the parent's BENCHMARK.json once per side, as
# `--workload W --seed i --trace 0 --seconds <run_seconds>` from that
# side's root, alternating which side goes first. It then prints, per
# workload and end-to-end metric, the parent median and interquartile
# range, the change median, the relative difference, the bound, the pairs
# the change won and a verdict:
#
#   improved      better on >= 90% of pairs and by more than the parent IQR
#   inside bound  not worse than the bound allows
#   unresolved    the parent's spread (IQR / median) is wider than the bound
#   regressed     the change median is worse than the parent's by more
#                 than the bound
#
# followed by failed/attempted operations per side. Exits non-zero on a
# regression, on a rise in the share of failed operations, or on any run
# that reports "correct": false. Needs jq. Temporary files go under
# $TMPDIR (default /tmp) and are removed on exit.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <parent-rev> [pairs, default 10]" >&2
    exit 2
fi
parent_rev="$1"
pairs="${2:-10}"
change_root="$(pwd)"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_compare.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
parent_root="$tmp/parent"
mkdir -p "$parent_root"
git archive "$parent_rev" | tar -x -C "$parent_root"

for side in parent change; do
    root_var="${side}_root"
    echo "building chronicle-benchmark ($side)..." >&2
    (cd "${!root_var}" &&
        CARGO_TARGET_DIR="$tmp/target-$side" cargo build -q --release --offline -p chronicle-benchmark)
done

spec="$parent_root/BENCHMARK.json"
seconds="$(jq -r '.run_seconds' "$spec")"
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
results="$tmp/results.jsonl"
: >"$results"

# run_one <side> <workload> <seed>: one untraced run, its final JSON line
# appended to $results tagged with side, workload and seed. A run that
# prints no JSON line counts as incorrect.
run_one() {
    local side="$1" workload="$2" seed="$3" root_var="${1}_root" line
    line="$(cd "${!root_var}" &&
        "$tmp/target-$side/release/benchmark" --workload "$workload" --seed "$seed" \
            --trace 0 --seconds "$seconds" 2>/dev/null | tail -n 1)" || true
    if ! jq -e 'type == "object"' >/dev/null 2>&1 <<<"$line"; then
        line='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}'
    fi
    jq -c --arg side "$side" --arg w "$workload" --argjson seed "$seed" \
        '. + {side: $side, workload: $w, seed: $seed}' <<<"$line" >>"$results"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            echo "pair $i/$pairs  $w  $side" >&2
            run_one "$side" "$w" "$i"
        done
    done
done

report="$(jq -r -n --slurpfile spec "$spec" --slurpfile runs <(jq -s . "$results") '
  def quantile($p): sort | ((length - 1) * $p) as $h
    | .[$h | floor] + (.[$h | ceil] - .[$h | floor]) * ($h - ($h | floor));
  def num: if . == null then "-"
    elif fabs >= 100 then (. * 10 | round / 10 | tostring)
    else (. * 1000 | round / 1000 | tostring) end;
  def pct: (. * 1000 | round / 10) as $r | (if $r == 0 then 0 else $r end | tostring) + "%";
  def signed_pct: (if . * 1000 | round > 0 then "+" else "" end) + pct;
  $spec[0] as $b | $runs[0] as $r
  | "| workload | metric | parent median | parent IQR | change median | diff | bound | won | verdict |",
    "|---|---|---|---|---|---|---|---|---|",
    ( $b.workloads[].name as $w | $b.end_to_end[] as $m
      | [$r[] | select(.workload == $w)] as $rw
      | [$rw[] | select(.side == "parent") | .metrics[$m.name].value // empty] as $p
      | [$rw[] | select(.side == "change") | .metrics[$m.name].value // empty] as $c
      | if ($p | length) == 0 or ($c | length) == 0 then
          "| \($w) | \($m.name) | - | - | - | - | \($m.bound | pct) | - | missing |"
        else
          ($p | quantile(0.5)) as $pm | ($c | quantile(0.5)) as $cm
          | (($p | quantile(0.75)) - ($p | quantile(0.25))) as $iqr
          | (if $pm == 0 then 0 else ($cm - $pm) / $pm end) as $rel
          | (if $m.better == "higher" then -$rel else $rel end) as $worse
          | [ $rw[] | select(.side == "change") | . as $cr
              | ($rw[] | select(.side == "parent" and .seed == $cr.seed)) as $pr
              | ($cr.metrics[$m.name].value // null) as $cv
              | ($pr.metrics[$m.name].value // null) as $pv
              | select($cv != null and $pv != null)
              | if $m.better == "higher" then $cv > $pv else $cv < $pv end ] as $wins
          | ($wins | map(select(.)) | length) as $won
          | (if $pm != 0 and $iqr / $pm > $m.bound then "unresolved"
             elif $worse > $m.bound then "regressed"
             elif $won >= 0.9 * ($wins | length) and $worse < 0 and ($cm - $pm | fabs) > $iqr
             then "improved"
             else "inside bound" end) as $verdict
          | "| \($w) | \($m.name) | \($pm | num) | \($iqr | num) | \($cm | num) | \($rel | signed_pct) | \($m.bound | pct) | \($won)/\($wins | length) | \($verdict) |"
        end ),
    "",
    "| workload | parent failed/attempted | change failed/attempted | incorrect runs (parent, change) |",
    "|---|---|---|---|",
    ( $b.workloads[].name as $w
      | [$r[] | select(.workload == $w)] as $rw
      | [$rw[] | select(.side == "parent")] as $pr
      | [$rw[] | select(.side == "change")] as $cr
      | ([$pr[].failed] | add) as $pf | ([$pr[].attempted] | add) as $pa
      | ([$cr[].failed] | add) as $cf | ([$cr[].attempted] | add) as $ca
      | (if $ca > 0 and $pa > 0 and $cf / $ca > $pf / $pa then " (failed share rose)" else "" end) as $rose
      | "| \($w) | \($pf)/\($pa) | \($cf)/\($ca)\($rose) | \([$pr[] | select(.correct != true)] | length), \([$cr[] | select(.correct != true)] | length) |" )
')"
echo "$report"

status=0
if grep -q '| regressed |' <<<"$report"; then
    echo "bench_compare: regression beyond a BENCHMARK.json bound" >&2
    status=1
fi
if grep -q 'failed share rose' <<<"$report"; then
    echo "bench_compare: the share of failed operations rose" >&2
    status=1
fi
if [ "$(jq -s '[.[] | select(.correct != true)] | length' "$results")" -ne 0 ]; then
    echo "bench_compare: a run reported \"correct\": false" >&2
    status=1
fi
exit "$status"
