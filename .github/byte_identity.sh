#!/usr/bin/env bash
# Byte identity of the CLI artifacts against a base commit.
#
#   .github/byte_identity.sh <base-commit>
#
# Writes, with the source tree of the checkout and with that of the base
# commit (extracted by `git archive` into a temporary directory), the
# artifacts of `compare --catalog` on every catalog entry, of
# `compare --catalog x_plus_x2y --res 48` (the 4-D Euler count at the
# resolution of the euler_4d benchmark workload), of `compare --res 21`
# on x_plus_x2y and z^3 (odd extents: the 4-D closure walk ends on a
# short slab of axis 0), of `compare --config` on the 4-D bowl below
# (its relative region stays inside the first box, so the Euler count
# returns without growing it), of the continue ladders below, with crit,
# flow (json and csv), complex, homology and oracle at each eps of a
# ladder, of `continue --delta 0.41` on the double well and on z3 (the
# ramp ends 1/delta are inexact there, unlike at the default delta 0.5 of
# the ladders), of crit, flow, complex, homology, oracle and compare on
# the planar maximum below, of crit, complex and `compare --catalog z^3`
# at seed 7, of `sweep-eps` (json and csv) on the double well and of
# `sweep-theta` on z^3 over the grids below, cache entries included; then
# compares the two output directories with `diff -r`.  That is every
# deterministic artifact the CLI writes: `report` stays out, since its
# manifest carries timestamps by design.  A difference fails the check
# unless morsevanish.__version__ differs between the two trees, since a
# version bump is how a change that moves artifact bytes is declared.
# Cache keys carry the version, so after a bump every cache entry
# differs; that branch lists the stage artifacts that moved, cache
# excluded, in place of the whole diff.
# Run from the root of the repository, with the history of the base commit
# present (actions/checkout needs fetch-depth: 0).
set -euo pipefail

base_rev=${1:?usage: .github/byte_identity.sh <base-commit>}
head_dir=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git archive "$base_rev" src | tar -x -C "$work/base"

cat > "$work/double_well.json" <<'EOF'
{"name": "double_well", "dimension": 1, "domain": "real_line",
 "f": "x^4 - x^2", "tau": "pow(1 + x^2, -1/2)", "eps": 0.25}
EOF
cat > "$work/z3.json" <<'EOF'
{"name": "z3", "dimension": 1, "eps": 0.1,
 "polynomial": {"terms": [{"monomial": [3], "re": 1, "im": 0}]}}
EOF
cat > "$work/double_well4.json" <<'EOF'
{"name": "double_well4", "dimension": 4, "domain": "real_line",
 "f": "x1^4 - x1^2 + x2^2 + x3^2 + x4^2",
 "tau": "pow(1 + x1^2 + x2^2 + x3^2 + x4^2, -1/2)", "eps": 0.1}
EOF
cat > "$work/bowl4.json" <<'EOF'
{"dimension": 4, "domain": "real_line", "f": "x1^2 + x2^2 + x3^2 + x4^2",
 "tau": "pow(1 + x1^2 + x2^2 + x3^2 + x4^2, -1/2)", "eps": 0.1,
 "window": {"lambda": 1.0, "Lambda": 4.0}}
EOF
# a maximum between two saddles: its flow counts the top degree by the
# dual route; continue refuses an index-2 source, so it runs no ladder
cat > "$work/max2d.json" <<'EOF'
{"name": "max2d", "dimension": 2, "domain": "real_line",
 "f": "x^4 - x^2 - y^2", "tau": "pow(1 + x^2 + y^2, -1)", "eps": 0.1}
EOF
# continues at delta 0.41, as eps_from:eps_to pairs; they run before the
# ladders, so their counts are not cached yet and share their first batch
inexact=(
  "double_well 0.25:0.125"
  "z3 0.1:0.08"
)
sweep_grid="2^-2..2^-5"
theta_grid="2^-2..2^-4"
# each ladder: a config, then its continues as eps_from:eps_to pairs
ladders=(
  "double_well 0.25:0.125 0.125:0.0625"
  "z3 0.1:0.08"
  "double_well4 0.1:0.05"
)

artifacts() {
  # artifacts <source tree> <output directory>: each command writes into
  # its own subdirectory (a stage overwrites its artifact at another eps),
  # and all of them share one cache under <output directory>/cache
  local src=$1/src out=$2
  cli() {
    local dir=$1
    shift
    PYTHONPATH="$src" MORSEVANISH_CACHE="$out/cache" \
      python3 -m morsevanish.cli "$@" --out "$out/$dir" > /dev/null
  }
  for name in $(PYTHONPATH="$src" python3 -c \
      'from morsevanish.oracle import catalog_names; print(*catalog_names())'); do
    cli catalog compare --catalog "$name"
  done
  cli catalog-res48 compare --catalog x_plus_x2y --res 48
  cli catalog-res21 compare --catalog x_plus_x2y --res 21
  cli catalog-z3-res21 compare --catalog "z^3" --res 21
  cli bowl4 compare --config "$work/bowl4.json"
  cli double_well-sweep sweep-eps --config "$work/double_well.json" \
    --grid "$sweep_grid"
  cli z3-sweep-theta sweep-theta --config "$work/z3.json" \
    --grid "$theta_grid" --thetas 2
  for stage in crit flow complex homology oracle compare; do
    cli max2d "$stage" --config "$work/max2d.json" --eps 0.1
  done
  # every other run uses seed 0: the search starts elsewhere at seed 7
  for stage in crit complex; do
    cli z3-seed7 "$stage" --config "$work/z3.json" --seed 7
  done
  cli catalog-seed7 compare --catalog "z^3" --seed 7
  local run key from to eps stage
  for run in "${inexact[@]}"; do
    set -- $run
    key=$1 from=${2%:*} to=${2#*:}
    cli "$key-$from-$to-delta0.41" continue --config "$work/$key.json" \
      --eps-from "$from" --eps-to "$to" --delta 0.41
  done
  for ladder in "${ladders[@]}"; do
    set -- $ladder
    key=$1
    shift
    for pair in "$@"; do
      from=${pair%:*} to=${pair#*:}
      cli "$key-$from-$to" continue --config "$work/$key.json" \
        --eps-from "$from" --eps-to "$to"
      for eps in "$from" "$to"; do
        for stage in crit flow complex homology oracle; do
          cli "$key-$eps" "$stage" --config "$work/$key.json" --eps "$eps"
        done
      done
    done
  done
}

version() {
  PYTHONPATH="$1/src" python3 -c \
    'import morsevanish; print(morsevanish.__version__)'
}

artifacts "$head_dir" "$work/out-head"
artifacts "$work/base" "$work/out-base"
files=$(find "$work/out-head" -type f | wc -l)
if diff -r "$work/out-base" "$work/out-head" > "$work/diff"; then
  echo "byte-identical: $files files against $base_rev"
elif [ "$(version "$work/base")" != "$(version "$head_dir")" ]; then
  echo "artifacts differ, and the version moved" \
       "$(version "$work/base") -> $(version "$head_dir")"
  echo "stage artifacts that differ (cache excluded):"
  diff -rq -x cache "$work/out-base" "$work/out-head" \
    | sed "s|$work/out-base/||; s|$work/out-head/||" || true
else
  cat "$work/diff"
  echo "artifacts differ from $base_rev at the same version" \
       "$(version "$head_dir")" >&2
  exit 1
fi
