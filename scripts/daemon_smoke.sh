#!/bin/sh
# End-to-end daemon smoke: start faded on a fresh socket, run several
# concurrent client sessions with --check (each compares the daemon's
# result fingerprints bit-for-bit against a standalone in-process run
# of the same config), then SIGTERM the daemon and require a clean
# drain ("clean shutdown", exit 0). In between, a config the system
# cannot build must come back as a typed rejection from a daemon that
# keeps running, and unknown --engine/--policy values must be usage
# errors of faded_client and trace_tool. Exercises the real executables
# and a real socket — the layer above what tests/test_daemon.cc drives
# in-process. Usage:
#
#   sh scripts/daemon_smoke.sh [builddir]
#
# Default builddir=build. Fails (non-zero) on any fingerprint
# mismatch, client failure, or unclean daemon shutdown.
set -eu
cd "$(dirname "$0")/.."

builddir=${1:-build}

for bin in faded faded_client trace_tool; do
    if [ ! -x "$builddir/$bin" ]; then
        echo "missing $builddir/$bin — build first:" >&2
        echo "  cmake -B $builddir -S . && cmake --build $builddir -j" >&2
        exit 1
    fi
done

dir=$(mktemp -d /tmp/faded_smoke_XXXXXX)
sock="$dir/d.sock"
log="$dir/faded.log"
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$dir"' EXIT

"$builddir/faded" --socket "$sock" --max-sessions 8 --workers 2 \
    > "$log" 2>&1 &
daemon_pid=$!

# Four concurrent sessions, distinct configs, each differentially
# checked against a standalone run.
echo "== 4 concurrent checked sessions =="
pids=""
fail=0
"$builddir/faded_client" --socket "$sock" --check \
    --monitor MemLeak --profile bzip --warm 1000 --instr 4000 &
pids="$pids $!"
"$builddir/faded_client" --socket "$sock" --check \
    --monitor AddrCheck --profile mcf --shards 2 --policy parallel \
    --warm 1000 --instr 4000 &
pids="$pids $!"
"$builddir/faded_client" --socket "$sock" --check \
    --monitor TaintCheck --profile astar --engine rungrain \
    --warm 1000 --instr 4000 &
pids="$pids $!"
"$builddir/faded_client" --socket "$sock" --check \
    --monitor RaceCheck --profile ocean-mt --shards 2 \
    --warm 1000 --instr 4000 &
pids="$pids $!"
for pid in $pids; do
    wait "$pid" || fail=1
done
[ "$fail" -eq 0 ] || { echo "smoke: a checked session failed" >&2
                       cat "$log" >&2; exit 1; }

# A well-formed request the system cannot build (4 process threads do
# not divide across 3 shards) is rejected with a typed reason, and the
# same daemon then still serves a checked session.
echo "== unbuildable config =="
rc=0
"$builddir/faded_client" --socket "$sock" --monitor RaceCheck \
    --profile ocean-mt --shards 3 --warm 1000 --instr 4000 \
    > "$dir/reject.log" 2>&1 || rc=$?
[ "$rc" -eq 1 ] && grep -q "rejected (bad-config)" "$dir/reject.log" || {
    echo "smoke: 3-shard ocean-mt exited $rc, want 1 with a" \
         "bad-config rejection:" >&2
    cat "$dir/reject.log" >&2
    exit 1
}
"$builddir/faded_client" --socket "$sock" --check \
    --monitor MemLeak --profile gcc --warm 1000 --instr 4000 || {
    echo "smoke: checked session after the rejection failed" >&2
    cat "$log" >&2
    exit 1
}

# Unknown knob values are usage errors (exit 2), caught before the
# client connects (or the tool runs) rather than silently mapped to a
# default. $bad is left unquoted on purpose: it splits into a flag and
# its value.
echo "== unknown knob values =="
for bad in "--engine rungran" "--policy parallell"; do
    rc=0
    "$builddir/faded_client" --socket "$sock" $bad > /dev/null 2>&1 ||
        rc=$?
    [ "$rc" -eq 2 ] || { echo "smoke: faded_client $bad exited $rc," \
                              "want 2 (usage error)" >&2; exit 1; }
done
rc=0
"$builddir/trace_tool" --bench --policy parallell > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "smoke: trace_tool --policy parallell exited" \
                          "$rc, want 2 (usage error)" >&2; exit 1; }

echo "== clean shutdown =="
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "smoke: daemon exited non-zero" >&2
                        cat "$log" >&2; exit 1; }
grep -q "clean shutdown" "$log" || {
    echo "smoke: no clean-shutdown marker in daemon log:" >&2
    cat "$log" >&2
    exit 1
}
echo "daemon smoke OK"
