#!/usr/bin/env bash
# Replay a seed sweep of chaos runs twice and compare the two passes.
#
#   scripts/chaos_sweep.sh PROTOCOL MODE FIRST LAST
#
# PROTOCOL is SA or DA; MODE is volatile or durable.  Each seed in
# FIRST..LAST runs an 8-node, t=3 cluster for 250 requests with six
# crashes, two partitions and ambient drops (p=0.1).  The first pass's
# output goes to stdout.  Exits 1 if any run breaks an invariant (or
# fails), or if the second pass differs from the first by any byte.
set -uo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 PROTOCOL MODE FIRST LAST" >&2
    exit 2
fi
protocol=$1 mode=$2 first=$3 last=$4
case "$mode" in
    volatile) extra="" ;;
    durable) extra="--durable" ;;
    *) echo "$0: MODE must be volatile or durable, not '$mode'" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for pass in 1 2; do
    for seed in $(seq "$first" "$last"); do
        echo "== chaos $protocol $mode seed $seed"
        # shellcheck disable=SC2086
        if ! PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.cli chaos \
            --protocol "$protocol" --nodes 8 --t 3 --requests 250 \
            --seed "$seed" --drop-probability 0.1 --crashes 6 --partitions 2 \
            $extra 2>&1; then
            echo "!! seed $seed failed"
            status=1
        fi
    done > "$out/pass$pass"
done

cat "$out/pass1"
if ! cmp -s "$out/pass1" "$out/pass2"; then
    echo "!! the second pass drifted from the first:"
    diff "$out/pass1" "$out/pass2" | head -40
    status=1
fi
exit $status
