#!/usr/bin/env bash
# Overload soak (docs/robustness.md): hammers the traversal service past
# its capacity and asserts the PR's overload-safety acceptance criteria
# end to end:
#
#   * the in-binary overload battery (ctest -L overload: 4x pool
#     oversubscription, mixed priorities, injected wedges, tight
#     deadlines) plus the watchdog/admission suites, iterated ROUNDS
#     times to shake out schedule-dependent interleavings;
#   * an agt_tool stats run with an admission bound, shed policy, mixed
#     priorities, and per-job deadlines — the emitted JSON report must
#     pass the schema check, and the service section's conservation law
#     (submitted == rejected + completed + failed + cancelled +
#     deadline_exceeded + stalled + shed) must hold exactly;
#   * a semi-external traversal wedged by the fault injector's stall mode
#     (--inject=stall=1) must be terminated by the watchdog with a typed
#     reason and agt_tool's contract exit code 4 — never a hang, never a
#     generic failure — on every run path: plain, --hybrid, and
#     --checkpoint-on-error, whose emergency checkpoint must then resume
#     (--resume, healthy device) to exit 0.
#
# The soak finishing at all is the no-deadlock assertion; every round
# re-runs on a fresh engine, so a leaked gang in round N wedges round N+1.
#
#   tools/overload_soak.sh [-jN] [--rounds=N]
#
# Exits non-zero on any test failure, schema violation, conservation
# violation, or wrong exit code.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="-j$(nproc)"
ROUNDS=3
for arg in "$@"; do
  case "${arg}" in
    -j*) JOBS="${arg}" ;;
    --rounds=*) ROUNDS="${arg#--rounds=}" ;;
    *)
      echo "unknown argument: ${arg}" >&2
      exit 2
      ;;
  esac
done

cmake --preset default
cmake --build --preset default "${JOBS}" \
  --target test_overload test_service agt_tool

for ((round = 1; round <= ROUNDS; ++round)); do
  echo "=== overload soak: round ${round}/${ROUNDS} ==="
  ctest --test-dir build --output-on-failure -L overload
  ctest --test-dir build --output-on-failure -R 'Watchdog|Admission'
done

# End-to-end admission pass: more jobs than the pending bound allows, shed
# policy, mixed priorities, generous deadlines. agt_tool must exit 0 (the
# stats workload tolerates typed terminations) and the report's service
# section must conserve exactly — check_bench_json.py enforces the law.
report="$(mktemp /tmp/overload_soak.XXXXXX.json)"
ckpt="$(mktemp /tmp/overload_soak.XXXXXX.ckpt)"
trap 'rm -f "${report}" "${ckpt}"' EXIT
echo "=== overload soak: agt_tool stats under shed admission ==="
./build/tools/agt_tool stats --scale=12 --threads=2 --jobs=12 \
  --max-pending=4 --admission=shed --mix-priority \
  --deadline-ms=20000 --stall-grace-ms=1000 --json "${report}"
python3 tools/check_bench_json.py "${report}"
python3 - "${report}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    svc = json.load(f)["sections"]["service"]
law = (svc["rejected"] + svc["completed"] + svc["failed"] +
       svc["cancelled"] + svc["deadline_exceeded"] + svc["stalled"] +
       svc["shed"])
assert svc["active"] == 0, f"jobs still active at exit: {svc['active']}"
assert svc["submitted"] == 12, f"expected 12 submitted, got {svc['submitted']}"
assert svc["submitted"] == law, f"conservation violated: {svc}"
print(f"conservation holds: {svc['submitted']} submitted = "
      f"{svc['completed']} completed + {svc['rejected']} rejected + "
      f"{svc['shed']} shed + {svc['deadline_exceeded']} deadline_exceeded")
PY

# End-to-end stall pass: every SEM read wedges until the watchdog's abort
# hint lands; the job must terminate typed (deadline or stall) within the
# configured windows, and agt_tool must report it via exit code 4.
# Hybrid and checkpointed runs are engine jobs too, so the same wedge must
# end them the same way.
rm -f "${ckpt}"
for path in "" "--hybrid" "--checkpoint-on-error=${ckpt}"; do
  echo "=== overload soak: watchdog vs injected stall (bfs ${path:-plain}) ==="
  rc=0
  ./build/tools/agt_tool bfs --sem --scale=12 --threads=4 ${path} \
    --inject=stall=1 --stall-grace-ms=300 --deadline-ms=10000 || rc=$?
  if [[ "${rc}" -ne 4 ]]; then
    echo "expected exit code 4 (deadline/stall termination), got ${rc}" >&2
    exit 1
  fi
done

# The emergency checkpoint the wedged run left behind resumes on a healthy
# device (the demo graph is regenerated identically from --scale/--seed).
echo "=== overload soak: resume from the stall checkpoint ==="
if [[ ! -s "${ckpt}" ]]; then
  echo "the wedged --checkpoint-on-error run wrote no checkpoint" >&2
  exit 1
fi
./build/tools/agt_tool bfs --sem --scale=12 --threads=4 --resume="${ckpt}"

echo "overload soak passed (${ROUNDS} rounds)"
