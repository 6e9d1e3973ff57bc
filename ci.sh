#!/bin/sh
# CI gate: build, full test suite (includes the smoke crash,
# replication and bit-rot sweeps), bench smoke (micro + storage hot
# paths + query engine + observability overhead + replication + page
# integrity + mvcc + serving + loadgen + cluster, which emit
# BENCH_PR2.json .. BENCH_PR10.json into a temp dir — the committed trajectory records in
# the repo tree are never touched), then the long fixed-seed
# crash-torture, replication fault and bit-rot sweeps.  Smoke and full
# both end the bench smoke with a short perfbench `fleet` run.
# Equivalent to `dune build @ci` plus the bench smoke.  Pass `smoke` to skip the
# long sweeps.
#
# Set BENCH_OUT to keep the emitted bench records (CI uploads them as
# workflow artifacts); unset, they go to a temp dir removed on exit.
set -e
cd "$(dirname "$0")"

fail() {
  echo "ci: $*" >&2
  exit 1
}

# check_bench_json FILE KEY... — the trajectory record must exist,
# parse as a JSON object, contain every KEY, and must not record a
# failed acceptance gate ("pass": false anywhere).  Validation is done
# by the bench harness's own JSON reader (`bench/main.exe validate`),
# not a grep over the raw bytes.
check_bench_json() {
  file="$1"
  shift
  [ -s "$file" ] || fail "$(basename "$file") missing or empty"
  dune exec bench/main.exe -- validate "$file" "$@" \
    || fail "$(basename "$file") failed validation"
}

dune build
dune runtest

# bench smoke: each section must run end to end and emit a well-formed
# trajectory record with its acceptance gate passing
if [ -n "${BENCH_OUT:-}" ]; then
  mkdir -p "$BENCH_OUT"
else
  BENCH_OUT="$(mktemp -d)"
  trap 'rm -rf "$BENCH_OUT"' EXIT INT TERM
fi

# snapshot the committed trajectory records so we can prove the bench
# smoke never clobbers them (it must write only into $BENCH_OUT)
records_digest() {
  cat BENCH_PR2.json BENCH_PR3.json BENCH_PR4.json BENCH_PR5.json \
    BENCH_PR6.json BENCH_PR7.json BENCH_PR8.json BENCH_PR9.json \
    BENCH_PR10.json 2>/dev/null | cksum
}
digest_before="$(records_digest)"

dune exec bench/main.exe -- micro >/dev/null

# storage hot paths (PR2): legacy vs optimized pager
dune exec bench/main.exe -- storage --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR2.json" \
  commit_tx_per_s churn_pages_per_s journal_mib_per_s best_commit_speedup \
  environments acceptance

# query engine (PR3): compiled plans vs the legacy interpreter
dune exec bench/main.exe -- query --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR3.json" \
  deep_descent pool_descent join_heavy range_predicate like_prefix \
  workloads workloads_at_2x acceptance

# observability overhead (PR4): metrics on vs off on the gated workloads
dune exec bench/main.exe -- obs --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR4.json" \
  pr2_commit_tx pr3_deep_descent pr3_join_heavy pr3_range_predicate \
  workloads max_overhead_pct acceptance

# replication (PR5): ship/apply throughput and live-pair convergence
dune exec bench/main.exe -- repl --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR5.json" \
  ship_encode apply_replay steady_state_lag mean_lag_lsns \
  final_lsn_equal files_identical workloads acceptance

# page integrity (PR6): verified-read overhead, scrub throughput,
# bit-rot detection
dune exec bench/main.exe -- integrity --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR6.json" \
  verified_read cold_scan scrub detection overhead_pct \
  workloads acceptance

# mvcc (PR7): snapshot reader scaling across domains (gated, core-aware)
# and group-commit throughput (reported)
dune exec bench/main.exe -- mvcc --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR7.json" \
  reader_scaling speedup_4_vs_1 cores group_commit \
  serial_commits_per_s group_commits_per_s workloads acceptance

# snapshot serving (PR8): reader-pool QPS vs single-handle serving
# (gated, core-aware) and read-your-writes under a write-heavy mix
# (violations gated at zero)
dune exec bench/main.exe -- serving --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR8.json" \
  serving_scaling speedup_pool4_vs_single cores write_mix \
  rywr_violations pool_read_p99_ms workloads acceptance

# event-loop serving (PR9): connection-scaling curve HTTP vs binary
# (gated, core-aware) and the admission-control probe (connections
# dropped without a 503 gated at zero)
dune exec bench/main.exe -- loadgen --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR9.json" \
  connection_scaling admission_control qps_http_close_256 \
  qps_binary_batch_256 speedup_batch_vs_close_256 cores \
  p99_binary_batch_256_ms dropped_without_503 workloads acceptance

# cluster tier (PR10): aggregate routed GET QPS vs replica count
# (gated, core-aware), tail latency with one lagging replica (stale
# answers gated at zero), and failover time from primary kill to the
# first successful routed write (acknowledged-write loss and
# read-your-writes violations gated at zero)
dune exec bench/main.exe -- cluster --out "$BENCH_OUT" >/dev/null
check_bench_json "$BENCH_OUT/BENCH_PR10.json" \
  replica_scaling lagging_replica failover qps_1_replica qps_4_replicas \
  scaling_4_vs_1 lagging_p99_ms failover_ms acked_writes_lost \
  rywr_violations replica_promoted cores workloads acceptance

# fleet smoke: the repo benchmark's fleet workload (primary + promotable
# replica + router as real pdb processes) runs router <-> backend frames
# and feed shipping end to end and ends with a byte-identity check; its
# last line is a JSON verdict that must be correct with zero failed ops.
# The --trace 1 pass adds the in-process pooled pass (reader-pool
# generations built by snapshot/snapshot_clone under a running group
# writer) and checks its answers too.
for trace in 0 1; do
  fleet_verdict="$(python3 perfbench/run.py --workload fleet --seed 1 --seconds 3 --trace "$trace" | tail -n 1)"
  printf '%s\n' "$fleet_verdict" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
    || fail "perfbench fleet smoke (--trace $trace) failed: $fleet_verdict"
done

# replica smoke: `--readers 0` is a usage error on a replica and a
# cluster node; a plain (non-promotable) `pdb replica` follows a
# `pdb serve --primary`, serves a write made on the primary within a
# bounded wait, reports role "replica" in /repl, and both processes exit
# 0 on SIGTERM.  Python stands in for an HTTP client.
serving_re='serving on http://127.0.0.1:\([0-9]*\)/.*'

# banner_port LOG RE — wait (bounded) for a banner line in LOG and print
# the port RE captures; empty if none appears.
banner_port() {
  for _ in $(seq 200); do
    port="$(sed -n "s|.*$2|\1|p" "$1")"
    [ -n "$port" ] && { echo "$port"; return; }
    sleep 0.05
  done
}

replica_smoke() {
  dir="$(mktemp -d)"
  pdb=_build/default/bin/pdb.exe
  # no legacy path exists for --readers 0 on a replica or cluster node
  for cmd in "replica $dir/x.db --from 127.0.0.1:1" "serve $dir/x.db --cluster --primary 0"; do
    rc=0
    "$pdb" $cmd --readers 0 2>/dev/null || rc=$?
    [ "$rc" = 2 ] || fail "replica smoke: pdb $cmd --readers 0 exited $rc, want 2"
  done
  "$pdb" demo "$dir/p.db" >/dev/null
  "$pdb" serve "$dir/p.db" -p 0 --primary 0 >"$dir/p.log" 2>&1 &
  primary=$!
  replica=
  smoke_fail() {
    kill -KILL "$primary" $replica 2>/dev/null || true
    fail "replica smoke: $*"
  }
  feed="$(banner_port "$dir/p.log" 'replication feed on port \([0-9]*\).*')"
  pport="$(banner_port "$dir/p.log" "$serving_re")"
  [ -n "$feed" ] && [ -n "$pport" ] || smoke_fail "primary did not start: $(cat "$dir/p.log")"
  "$pdb" replica "$dir/r.db" --from "127.0.0.1:$feed" -p 0 >"$dir/r.log" 2>&1 &
  replica=$!
  rport="$(banner_port "$dir/r.log" "$serving_re")"
  [ -n "$rport" ] || smoke_fail "replica did not start: $(cat "$dir/r.log")"
  python3 - "$pport" "$rport" <<'EOF' || smoke_fail "see above"
import json, sys, time, urllib.parse, urllib.request
p, r = sys.argv[1], sys.argv[2]
def call(port, path, method="GET"):
    req = urllib.request.Request("http://127.0.0.1:%s%s" % (port, path), method=method)
    with urllib.request.urlopen(req, timeout=5) as resp:
        return resp.read().decode()
call(p, "/create?class=Taxon&rank=cismoke", "POST")
q = "/query?q=" + urllib.parse.quote("select t.rank from Taxon t where t.rank = 'cismoke'")
deadline = time.time() + 20
while call(r, q).strip() != '["cismoke"]':
    if time.time() > deadline:
        sys.exit("write not visible on the replica within 20 s")
    time.sleep(0.05)
role = json.loads(call(r, "/repl"))["role"]
sys.exit(0 if role == "replica" else "/repl role is %r" % role)
EOF
  kill -TERM "$replica" "$primary"
  wait "$replica" || smoke_fail "replica exited $? on SIGTERM"
  wait "$primary" || fail "replica smoke: primary exited $? on SIGTERM"
  rm -rf "$dir"
}

replica_smoke

# the bench smoke must leave the committed trajectory records untouched
[ "$(records_digest)" = "$digest_before" ] \
  || fail "bench smoke clobbered committed trajectory records"

if [ "${1:-full}" != "smoke" ]; then
  CRASH_TORTURE=long dune exec test/test_crash.exe -- -e
  REPL_TORTURE=long dune exec test/test_repl.exe -- -e
  SCRUB_TORTURE=long dune exec test/test_integrity.exe -- -e
  LOADGEN=soak dune exec bench/main.exe -- loadgen --out "$BENCH_OUT" >/dev/null
  check_bench_json "$BENCH_OUT/BENCH_PR9.json" \
    speedup_batch_vs_close_256 dropped_without_503 acceptance
fi
echo "ci: OK"
