#!/usr/bin/env bash
# Serve-layer fault smoke: drive fprakerd through its injected-failure
# matrix (docs/SERVING.md, "Failure modes & guarantees") and check
# that every fault surfaces as a structured error or a clean recovery
# — never a hang, a leaked job, or a wrong document:
#
#   1. torn spill write  -> quarantined on restart, re-simulated,
#                           fingerprint identical to a direct run
#   2. overload          -> structured "overloaded" + retry_after;
#                           client retries succeed once the queue
#                           drains
#   3. queued deadline   -> structured "timeout"; the pinned job
#                           still completes
#   4. stalled client    -> --io-timeout closes the connection; the
#                           daemon keeps serving others
#   5. dropped response  -> the client retry policy resubmits; the
#                           served document is bit-identical to a
#                           direct `fpraker run`
#   6. malformed option  -> structured "bad_request" on the same
#                           connection; the daemon still answers
#                           ping and shuts down cleanly
#
#   scripts/serve_fault_smoke.sh [build-dir]     (default: build)
#
# FPRAKER_SAMPLE_STEPS (default 8 here) keeps the simulations small;
# the script exercises failure handling, not the figures.
set -euo pipefail

bdir="${1:-build}"
work="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

export FPRAKER_SAMPLE_STEPS="${FPRAKER_SAMPLE_STEPS:-8}"

# start_daemon <name> <extra flags...>: boots fprakerd on a fresh
# socket ($sock) and waits for it.
start_daemon() {
    local name="$1"
    shift
    sock="$work/$name.sock"
    "$bdir"/fprakerd --socket="$sock" "$@" \
        > "$work/$name.log" 2>&1 &
    daemon_pid=$!
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || break
        sleep 0.1
    done
    if ! [ -S "$sock" ]; then
        echo "FAIL: daemon '$name' did not come up"
        cat "$work/$name.log"
        exit 1
    fi
}

# stop_daemon: clean shutdown over the wire; fails on a hang, an
# unclean exit status, or a leaked socket file.
stop_daemon() {
    "$bdir"/fpraker shutdown --socket="$sock" > /dev/null
    for _ in $(seq 1 100); do
        kill -0 "$daemon_pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$daemon_pid" 2>/dev/null; then
        echo "FAIL: daemon still running 10s after shutdown"
        exit 1
    fi
    local rc=0
    wait "$daemon_pid" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: daemon exited with status $rc"
        exit 1
    fi
    if [ -S "$sock" ]; then
        echo "FAIL: daemon leaked its socket file"
        exit 1
    fi
    daemon_pid=""
}

fingerprint() {
    python3 -c \
        'import json,sys; print(json.load(open(sys.argv[1]))["fingerprint"])' \
        "$1"
}

"$bdir"/fpraker run fig02 --json="$work/direct.json" > /dev/null
direct_fp="$(fingerprint "$work/direct.json")"

# ---------------------------------------------------------------------
echo "--- scenario 1: torn spill write is quarantined and re-simulated"
cache="$work/cache"
start_daemon torn --cache-dir="$cache" --fault=spill.torn_write=64:1
"$bdir"/fpraker submit fig02 --socket="$sock" --json="$work/torn1.json"
stop_daemon
# The spill of that document was torn mid-write (first 64 bytes, no
# checksum trailer). A restarted daemon must quarantine it, treat the
# key as a miss, and re-simulate — never serve the damaged bytes.
start_daemon healed --cache-dir="$cache"
"$bdir"/fpraker submit fig02 --socket="$sock" \
    --json="$work/torn2.json" | tee "$work/torn2.out"
grep -q "cached=false" "$work/torn2.out" || {
    echo "FAIL: corrupt spill entry was served instead of re-simulated"
    exit 1
}
"$bdir"/fpraker stats --json --socket="$sock" > "$work/torn.stats"
grep -q '"disk_corrupt": 1' "$work/torn.stats" || {
    echo "FAIL: stats do not count the quarantined spill file"
    cat "$work/torn.stats"
    exit 1
}
ls "$cache"/*.corrupt > /dev/null 2>&1 || {
    echo "FAIL: no quarantined *.corrupt file in the spill dir"
    exit 1
}
# Re-simulation recovered the exact document.
test "$(fingerprint "$work/torn2.json")" = "$direct_fp" || {
    echo "FAIL: re-simulated document diverged from the direct run"
    exit 1
}
python3 scripts/check_result_schema.py "$work/torn1.json" \
    "$work/torn2.json"
stop_daemon

# ---------------------------------------------------------------------
echo "--- scenario 2: overload sheds with retry_after; retries succeed"
start_daemon overload --workers=1 --queue-depth=1 \
    --fault=scheduler.worker_stall_ms=2000:1
# Pin the only worker (injected 2s stall), fill the one queue slot...
"$bdir"/fpraker submit fig02 --socket="$sock" --no-wait > /dev/null
sleep 0.2 # Let the worker pop the pin job before filling the queue.
"$bdir"/fpraker submit fig02 --sample-steps=9 --socket="$sock" \
    --no-wait > /dev/null
# ...so a no-retry submit must be rejected with the structured code.
if "$bdir"/fpraker submit fig02 --sample-steps=10 --socket="$sock" \
    --retries=0 > /dev/null 2> "$work/shed.err"; then
    echo "FAIL: overloaded submit with --retries=0 did not fail"
    exit 1
fi
grep -q "queue full" "$work/shed.err" || {
    echo "FAIL: rejection lacked the queue-full daemon error"
    cat "$work/shed.err"
    exit 1
}
# The same submit WITH retries backs off per the daemon's hint and
# lands once the stall ends and the queue drains.
"$bdir"/fpraker submit fig02 --sample-steps=10 --socket="$sock" \
    --retries=8 --json="$work/shed.json" 2> "$work/retry.err"
grep -q "succeeded on attempt" "$work/retry.err" || {
    echo "FAIL: retried submit did not report a multi-attempt success"
    cat "$work/retry.err"
    exit 1
}
"$bdir"/fpraker stats --json --socket="$sock" > "$work/overload.stats"
grep -Eq '"shed_overload": [1-9]' "$work/overload.stats" || {
    echo "FAIL: stats do not count the shed submits"
    cat "$work/overload.stats"
    exit 1
}
stop_daemon

# ---------------------------------------------------------------------
echo "--- scenario 3: a queued job past its deadline is shed as timeout"
start_daemon deadline --workers=1 \
    --fault=scheduler.worker_stall_ms=1500:1
"$bdir"/fpraker submit fig02 --socket="$sock" --no-wait > /dev/null
sleep 0.2 # Let the worker pop it so the next submit queues behind.
if "$bdir"/fpraker submit fig02 --sample-steps=9 --socket="$sock" \
    --deadline-ms=100 > /dev/null 2> "$work/deadline.err"; then
    echo "FAIL: deadlined submit behind a stalled worker did not fail"
    exit 1
fi
grep -q "deadline" "$work/deadline.err" || {
    echo "FAIL: shed job lacked the deadline error text"
    cat "$work/deadline.err"
    exit 1
}
"$bdir"/fpraker stats --json --socket="$sock" > "$work/deadline.stats"
grep -q '"shed_deadline": 1' "$work/deadline.stats" || {
    echo "FAIL: stats do not count the deadline-shed job"
    cat "$work/deadline.stats"
    exit 1
}
stop_daemon

# ---------------------------------------------------------------------
echo "--- scenario 4: a stalled client is timed out, daemon stays up"
start_daemon iotimeout --io-timeout=1
python3 - "$sock" <<'EOF'
import socket, sys, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
time.sleep(2.5)  # Send nothing: SO_RCVTIMEO must fire server-side.
s.settimeout(5)
assert s.recv(1) == b"", "daemon did not close the stalled connection"
print("stalled connection was closed by the daemon")
EOF
# The daemon is still healthy for well-behaved clients.
"$bdir"/fpraker submit fig02 --socket="$sock" \
    --json="$work/after_stall.json" > /dev/null
test "$(fingerprint "$work/after_stall.json")" = "$direct_fp"
stop_daemon

# ---------------------------------------------------------------------
echo "--- scenario 5: dropped response -> client retries, bytes intact"
start_daemon drop --fault=daemon.drop_connection=1:1
"$bdir"/fpraker submit fig02 --socket="$sock" \
    --json="$work/drop.json" 2> "$work/drop.err"
grep -q "succeeded on attempt" "$work/drop.err" || {
    echo "FAIL: dropped-connection submit did not retry transparently"
    cat "$work/drop.err"
    exit 1
}
test "$(fingerprint "$work/drop.json")" = "$direct_fp" || {
    echo "FAIL: retried document diverged from the direct run"
    exit 1
}
stop_daemon

# ---------------------------------------------------------------------
echo "--- scenario 6: a malformed served option is a bad_request"
start_daemon badopt
python3 - "$sock" <<'EOF'
import json, socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.settimeout(30)
f = s.makefile("rwb")

def ask(message):
    f.write((json.dumps(message) + "\n").encode())
    f.flush()
    line = f.readline()
    assert line, "daemon closed the connection"
    return json.loads(line)

# A bad batch or seq was once a fatal() in a scheduler worker: the
# daemon exited with status 1 and the client read EOF.
for experiment, options in (("ext_workload_catalog", {"batch": "abc"}),
                            ("ext_workload_catalog", {"seq": "16x"}),
                            ("ext_batch_sweep", {"batches": "8,,16"})):
    resp = ask({"op": "submit",
                "spec": {"experiment": experiment, "options": options}})
    assert resp["ok"] is False, resp
    assert resp["error_code"] == "bad_request", resp
resp = ask({"op": "ping"})
assert resp["ok"] is True, resp
print("malformed options refused as bad_request; daemon still serving")
EOF
stop_daemon

echo "serve fault smoke OK"
