#!/usr/bin/env bash
# Launcher for the iscope_serve scheduling daemon: builds the binary in the
# default build/ tree (configuring it first if absent) and execs it with
# the given flags. A default --socket is supplied when none is passed, so
#
#   tools/serve.sh --scheme ScanEffi --battery
#
# is enough to get a daemon listening. All flags pass through verbatim:
#
#   --socket PATH        unix socket to listen on
#                        (default /tmp/iscope_serve_$UID.sock)
#   --scheme NAME        scheduling scheme        (default ScanFair):
#                        BinRan BinEffi ScanRan ScanEffi ScanFair (paper),
#                        ScanTherm (switches the thermal model on),
#                        BinRanSleep BinEffiSleep ScanRanSleep
#                        ScanEffiSleep ScanFairSleep (timeout sleep
#                        governor unless --sleep-policy names one)
#   --scale F            facility scale factor    (default 1.0)
#   --seed N             run seed                 (default 2015)
#   --no-wind            utility-only supply
#   --battery            attach the battery model
#   --faults SPEC        fault spec, e.g. mtbf=30000,repair=600
#   --thermal            heat-recirculation + CRAC cooling model
#                        (default from ISCOPE_THERMAL)
#   --sleep-policy NAME  none | active-idle | immediate | timeout
#                        (default from ISCOPE_SLEEP_POLICY, else none)
#   --checkpoint PATH    where SIGTERM snapshots land; with --resume,
#                        restore from it at startup
#   --resume             restore from --checkpoint before serving
#   --metrics-port N     HTTP /metrics on loopback TCP port N
#   --admit-capacity N   admission-queue bound before BUSY (default 1024)
#
# SIGTERM checkpoints (when --checkpoint is set) and exits 0; a restarted
# daemon with --resume continues the run bit-identically (DESIGN.md
# Sec. 15). Stop without a checkpoint by sending SHUTDOWN over the wire.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--help" ] || [ "${1:-}" = "-h" ]; then
  sed -n '2,35p' "$0" | sed 's/^# \{0,1\}//'
  exit 0
fi

[ -d build ] || cmake -B build -S . > /dev/null
cmake --build build -j "$(nproc 2>/dev/null || echo 2)" \
      --target iscope_serve > /dev/null

SOCKET_SET=0
for arg in "$@"; do
  [ "$arg" = "--socket" ] && SOCKET_SET=1
done
if [ "$SOCKET_SET" -eq 0 ]; then
  set -- --socket "/tmp/iscope_serve_$(id -u).sock" "$@"
fi

exec ./build/src/service/iscope_serve "$@"
