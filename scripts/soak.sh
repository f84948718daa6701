#!/usr/bin/env bash
# Run one of the three soaks and write its JSON/CSV artifact.
#
#   churn  replays deterministic admission-control event tapes (adds,
#          removes, overload windows) against the long-running scheduler
#          runtime on both dispatch engines. Fails if an admitted set misses
#          a deadline outside a declared degraded window, or if the engines'
#          digests diverge.
#   chaos  plays a churn tape across sharded clusters while a seeded
#          schedule injects storage faults on every drive (failed fsyncs,
#          torn writes, disk-full, stalls), crash-restarts shards and
#          wedge-evacuates them. With replicas > 0 every shard carries that
#          many synchronous followers, wedges land on primary and follower
#          drives, and failover must absorb every one with zero shed.
#   gray   plays the tape while a seeded schedule makes one primary drive
#          at a time SLOW (every op succeeds, far over the latency SLO),
#          once with the latency signal armed and once blind. Fails if a
#          brownout is absorbed without promotion (replicas > 0) or the
#          armed drive misses more deadlines than the blind one.
#
# The chaos and gray soaks drive each width serially twice and
# concurrently once, and fail if any task is silently lost or orphaned,
# any clean-window deadline is missed, or any drive diverges.
#
# usage: scripts/soak.sh <churn|chaos|gray> [outdir] [events] [replicas]
#
#   outdir    artifact directory   (default: churnsoak / chaossoak / graysoak)
#   events    events per tape      (default: 1500 churn — use 10000 or more
#             for the full endurance run; 1200 chaos and gray — raise for a
#             denser fault schedule)
#   replicas  synchronous followers per shard, chaos and gray only
#             (default: 0 chaos; 1 gray — promotion is its headline
#             containment path, 0 exercises fencing only)
set -euo pipefail
cd "$(dirname "$0")/.."

soak="${1:-}"
case "$soak" in
churn) events_default=1500 replicas_default= ;;
chaos) events_default=1200 replicas_default=0 ;;
gray) events_default=1200 replicas_default=1 ;;
*)
	echo "usage: scripts/soak.sh <churn|chaos|gray> [outdir] [events] [replicas]" >&2
	exit 2
	;;
esac
outdir="${2:-${soak}soak}"
events="${3:-$events_default}"
args=(-events "$events")
if [[ "$soak" != churn ]]; then
	args+=(-replicas "${4:-$replicas_default}")
fi

# Stage into a temp dir so a failed run never leaves a partial artifact
# where CI (or a human) might mistake it for a finished one.
staging="$(mktemp -d "${TMPDIR:-/tmp}/${soak}_soak.XXXXXX")"
trap 'rm -rf "$staging"' EXIT INT TERM

go run ./cmd/paperbench "$soak" "${args[@]}" -csv "$staging"

mkdir -p "$outdir"
mv "$staging/$soak.json" "$staging/$soak.csv" "$outdir"/
echo "$soak soak artifact: $outdir/$soak.json"
