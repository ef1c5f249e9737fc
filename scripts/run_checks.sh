#!/usr/bin/env bash
# The single entry point CI and humans share: everything the repo
# considers "green", in the order CI runs it.
#
#   scripts/run_checks.sh            # full check suite
#   scripts/run_checks.sh --no-bench # skip the bench + system smokes (5-8)
#   scripts/run_checks.sh --no-cov   # skip the coverage report + floor
#
# Steps:
#   1. tier-1 pytest  (includes the doctest pass, docs-link tests, and
#      the whole-cluster scenario bars in tests/cluster/test_scenarios.py)
#   2. explicit doctest pass           (same tests, surfaced separately)
#   3. docs link check                 (scripts/check_docs_links.py)
#   4. resource-leak gate              (test_storage, test_query,
#      test_httpd, test_serve, test_pipeline, test_transport and
#      test_scenarios under python -X dev with ResourceWarning and
#      unraisable-exception warnings as errors: storage, reads, the
#      detached serve daemons and the worker-process lifecycle)
#   5. traced benchmark runs           (perfbench/run.py --trace 1 over
#      the four workloads: every ledger wrapper still binds by name,
#      and each run must report "correct": true)
#   6. process-plan smoke              (a crash-bearing stream through
#      per-node worker processes plus a serve up/status/down round
#      trip, each under a hard 120 s timeout)
#   7. serving smoke                   (--serve-http over a real run:
#      all four JSON endpoints fetched and validated as strict JSON,
#      under a hard timeout)
#   8. telemetry sample                (metrics snapshot + trace log)
#   9. cluster coverage report + floor (scripts/run_coverage.py —
#      pytest-cov when installed, stdlib tracer otherwise; fails below
#      the floor on src/repro/cluster/)
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_bench=1
run_cov=1
for arg in "$@"; do
  case "$arg" in
    --no-bench) run_bench=0 ;;
    --no-cov) run_cov=0 ;;
    *) echo "unknown option: $arg (supported: --no-bench, --no-cov)" >&2; exit 2 ;;
  esac
done

echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== doctest pass =="
python -m pytest tests/test_doctests.py -q

echo
echo "== docs link check =="
python scripts/check_docs_links.py

echo
echo "== resource-leak gate (dev mode, leak warnings are errors) =="
python -X dev -m pytest -q \
  -W error::ResourceWarning \
  -W error::pytest.PytestUnraisableExceptionWarning \
  tests/cluster/test_storage.py \
  tests/cluster/test_query.py \
  tests/cluster/test_httpd.py \
  tests/cluster/test_serve.py \
  tests/cluster/test_pipeline.py \
  tests/cluster/test_transport.py \
  tests/cluster/test_scenarios.py

if [ "$run_bench" -eq 1 ]; then
  echo
  echo "== traced benchmark runs (every ledger wrapper still binds) =="
  for workload in ingest-zipf ingest-weighted-durable ingest-process serve-mixed; do
    result="$(python3 perfbench/run.py --workload "$workload" \
      --seed 1 --seconds 1 --trace 1 | tail -n 1)"
    case "$result" in
      *'"correct": true'*) echo "$workload: correct" ;;
      *) echo "traced $workload run failed its gate: $result" >&2; exit 1 ;;
    esac
  done

  echo
  echo "== process-plan smoke (2 workers, hard 120s budget) =="
  process_dir="$(mktemp -d)"
  timeout 120 python src/repro/cli.py cluster \
    --nodes 2 --events 8000 --keys 200 \
    --checkpoint-every 2000 --kill 1@4000 \
    --plan process \
    --storage file --storage-dir "$process_dir/store" >/dev/null
  timeout 120 python src/repro/cli.py \
    cluster serve up --dir "$process_dir/store" --nodes 2 >/dev/null
  python src/repro/cli.py \
    cluster serve status --dir "$process_dir/store" >/dev/null
  python src/repro/cli.py \
    cluster serve down --dir "$process_dir/store" >/dev/null
  rm -rf "$process_dir"

  echo
  echo "== serving smoke (HTTP over a finished run, hard timeout) =="
  serving_log="$(mktemp)"
  python src/repro/cli.py cluster \
    --nodes 2 --events 6000 --keys 100 \
    --aggregation gossip --gossip-every 1500 \
    --serve-http 0 >"$serving_log" &
  serving_pid=$!
  serving_url=""
  for _ in $(seq 1 120); do
    serving_url="$(sed -n 's/^serving: \(http:[^ ]*\).*/\1/p' "$serving_log")"
    [ -n "$serving_url" ] && break
    if ! kill -0 "$serving_pid" 2>/dev/null; then
      echo "serving smoke: server exited before binding" >&2
      cat "$serving_log" >&2
      exit 1
    fi
    sleep 0.5
  done
  if [ -z "$serving_url" ]; then
    echo "serving smoke: server never reported its URL" >&2
    kill "$serving_pid" 2>/dev/null || true
    exit 1
  fi
  for endpoint in "/healthz" "/v1/keys/page-000000" "/v1/topk?k=3" "/v1/view"; do
    timeout 30 python -c '
import json, sys, urllib.request
with urllib.request.urlopen(sys.argv[1], timeout=10) as reply:
    payload = json.loads(reply.read().decode("utf-8"))
json.dumps(payload, allow_nan=False)   # strict JSON or bust
' "$serving_url$endpoint"
  done
  kill "$serving_pid"
  wait "$serving_pid" || true
  rm -f "$serving_log"

  echo
  echo "== telemetry sample (metrics snapshot + structured trace) =="
  sample_dir="$(mktemp -d)"
  python src/repro/cli.py cluster \
    --nodes 3 --events 20000 --keys 200 \
    --checkpoint-every 5000 --kill 1@10000 \
    --storage file --storage-dir "$sample_dir/store" \
    --metrics-out benchmarks/results/TELEMETRY_metrics.json \
    --trace-out benchmarks/results/TELEMETRY_trace.jsonl >/dev/null
  rm -rf "$sample_dir"
fi

if [ "$run_cov" -eq 1 ]; then
  echo
  echo "== cluster coverage (floor on src/repro/cluster/) =="
  python scripts/run_coverage.py
fi

echo
echo "all checks passed"
