#!/usr/bin/env bash
# End-to-end smoke of the serving daemon (CI runs this on the release
# preset; it also runs locally from the repo root):
#
#   tools/served_smoke.sh [path/to/build/examples]
#
# Proves the PR 8 acceptance story: two tenants share one cached plan
# (cache hit counter > 0), a mid-run SIGHUP swaps the config without
# dropping the in-flight campaign, consecutive scrapes are byte-identical
# outside the quarantined wall-clock series, scrape totals conserve, and
# SIGTERM drains to exit 0 with zero residual backlog.  A non-uniform
# composable traffic model (pattern=hotspot injection=onoff) additionally
# round-trips the wire protocol end to end, and a multi-hop fabric
# campaign must answer with identical traffic totals whether the daemon
# runs it on the serial schedule or the four-deep epoch pipeline.  Two
# single-chip "hyper" requests run from the plan cache like any family.
set -euo pipefail

BIN=$(cd "${1:-build/examples}" && pwd)
REPO=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

SOCK="$WORK/pcs.sock"
cp "$REPO/examples/served_smoke.cfg" "$WORK/served.cfg"
sed -i "s#^socket = .*#socket = $SOCK#" "$WORK/served.cfg"

echo "== start daemon"
(cd "$WORK" && exec "$BIN/pcs_served" --config "$WORK/served.cfg" \
  > "$WORK/daemon.log" 2>&1) &
DPID=$!
for i in $(seq 50); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "daemon never bound $SOCK"; cat "$WORK/daemon.log"; exit 1; }

echo "== two tenants, shared plan"
"$BIN/pcs_loadgen" socket="$SOCK" tenants=2 requests=4 require=ok \
  | tee "$WORK/loadgen.txt"
grep -q "cache_hits=" "$WORK/loadgen.txt"

echo "== non-uniform traffic model over the wire (hotspot x onoff)"
"$BIN/pcs_loadgen" socket="$SOCK" tenants=1 requests=2 require=ok \
  pattern=hotspot injection=onoff | tee "$WORK/loadgen_hotspot.txt"
grep -q "ok=2" "$WORK/loadgen_hotspot.txt"

echo "== scrape twice; deterministic outside *wall* names"
"$BIN/pcs_loadgen" socket="$SOCK" scrape="$WORK/scrape1.json" > /dev/null
"$BIN/pcs_loadgen" socket="$SOCK" scrape="$WORK/scrape2.json" > /dev/null
python3 - "$WORK/scrape1.json" "$WORK/scrape2.json" <<'EOF'
import json, sys

a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))

def stable(doc):
    # Wall-clock series are confined to names containing "wall" by design.
    # serve.scrapes / serve.connections are self-observing: the scrape that
    # reads them is itself a connection.  Everything else must be stable
    # between two back-to-back scrapes of a quiet daemon.
    skip = {"serve.scrapes", "serve.connections"}
    out = {}
    for section, entries in doc.items():
        out[section] = {k: v for k, v in entries.items()
                        if "wall" not in k and k not in skip}
    return out

sa, sb = stable(a), stable(b)
assert sa == sb, "scrapes differ outside wall/scrape-count series"

c = a["counters"]
assert c["serve.cache.hits"] > 0, "tenants never shared a cached plan"
assert c["total.offered"] == (c["total.delivered"] + c["total.dropped"]
                              + c["total.residual"]), "conservation violated"
assert c["serve.campaigns_completed"] == 10  # 2x4 uniform + 2 hotspot/onoff
print(f"scrape ok: hits={c['serve.cache.hits']} offered={c['total.offered']}")
EOF

echo "== fabric campaign: pipelined schedule matches serial at the wire"
# The same multi-hop request at epochs_in_flight 1 and 4 must come back
# with byte-identical traffic totals: the pipeline reorders work, never
# results.  (Runs after the scrape checks so their campaign count holds.)
"$BIN/pcs_loadgen" socket="$SOCK" tenants=1 requests=1 require=ok \
  topology=omega epochs_in_flight=1 | tee "$WORK/fabric_serial.txt"
"$BIN/pcs_loadgen" socket="$SOCK" tenants=1 requests=1 require=ok \
  topology=omega epochs_in_flight=4 | tee "$WORK/fabric_pipelined.txt"
grep '^traffic:' "$WORK/fabric_serial.txt" > "$WORK/fabric_serial_totals.txt"
grep '^traffic:' "$WORK/fabric_pipelined.txt" \
  > "$WORK/fabric_pipelined_totals.txt"
cmp "$WORK/fabric_serial_totals.txt" "$WORK/fabric_pipelined_totals.txt" || {
  echo "pipelined fabric campaign diverged from the serial totals"
  exit 1
}
"$BIN/pcs_loadgen" socket="$SOCK" scrape="$WORK/scrape_fabric.json" > /dev/null
python3 - "$WORK/scrape_fabric.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c.get("serve.fabric_campaigns", 0) == 2, "fabric campaigns not counted"
print(f"fabric ok: {c['serve.fabric_campaigns']} campaigns, totals identical")
EOF

echo "== single-chip hyper campaigns run from the plan cache"
# Every family compiles to a plan, so the daemon serves "hyper" like any
# other family: the second identical request is a cache hit.  (Runs after
# the count assertions above so they hold.)
"$BIN/pcs_loadgen" socket="$SOCK" scrape="$WORK/scrape_pre_hyper.json" > /dev/null
"$BIN/pcs_loadgen" socket="$SOCK" tenants=1 requests=1 require=ok \
  family=hyper | tee "$WORK/hyper1.txt"
"$BIN/pcs_loadgen" socket="$SOCK" tenants=1 requests=1 require=ok \
  family=hyper | tee "$WORK/hyper2.txt"
"$BIN/pcs_loadgen" socket="$SOCK" scrape="$WORK/scrape_hyper.json" > /dev/null
python3 - "$WORK/scrape_pre_hyper.json" "$WORK/scrape_hyper.json" <<'EOF'
import json, sys
before = json.load(open(sys.argv[1]))["counters"]
after = json.load(open(sys.argv[2]))["counters"]
assert after["serve.cache.hits"] > before["serve.cache.hits"], \
    "repeated hyper request missed the plan cache"
assert (after["serve.campaigns_completed"]
        == before["serve.campaigns_completed"] + 2), "hyper campaigns not run"
print(f"hyper ok: cache hits {before['serve.cache.hits']} -> "
      f"{after['serve.cache.hits']}")
EOF

echo "== SIGHUP mid-run; in-flight campaign survives"
# One long campaign in flight...
"$BIN/pcs_loadgen" socket="$SOCK" tenants=1 requests=1 require=ok \
  measure=4096 > "$WORK/inflight.txt" &
LGPID=$!
sleep 0.3
# ...while the config changes under it (load point doubles).
sed -i "s/^arrival_p = .*/arrival_p = 0.20/" "$WORK/served.cfg"
kill -HUP "$DPID"
wait "$LGPID" || { echo "in-flight campaign dropped across reload"; exit 1; }
"$BIN/pcs_loadgen" socket="$SOCK" scrape="$WORK/scrape3.json" > /dev/null
python3 - "$WORK/scrape3.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c.get("serve.config_reloads", 0) >= 1, "reload not applied"
assert c.get("serve.config_reload_failures", 0) == 0
print(f"reload ok: reloads={c['serve.config_reloads']}")
EOF

echo "== SIGTERM drains clean"
kill -TERM "$DPID"
DRAIN_RC=0
wait "$DPID" || DRAIN_RC=$?
DPID=""
[ "$DRAIN_RC" -eq 0 ] || { echo "drain exit $DRAIN_RC"; cat "$WORK/daemon.log"; exit 1; }
[ -S "$SOCK" ] && { echo "socket left behind"; exit 1; }
python3 - "$WORK/served_metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
c, g = doc["counters"], doc["gauges"]
assert c["total.offered"] == (c["total.delivered"] + c["total.dropped"]
                              + c["total.residual"]), "final conservation"
assert g["serve.inflight"] == 0, "residual in-flight after drain"
print(f"drain ok: {c['serve.campaigns_completed']} campaigns, "
      f"{c['total.offered']} offered")
EOF

echo "served smoke: all checks passed"
