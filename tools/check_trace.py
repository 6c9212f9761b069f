#!/usr/bin/env python3
"""Validate a pcs_serve Chrome trace against its runtime metrics document.

Checks, in order:
  1. the trace is well-formed Chrome trace-event JSON: a traceEvents list of
     complete-duration ("ph": "X") events with name/cat/pid/tid/ts/dur;
  2. timestamps are normalized: the minimum ts across all events is 0;
  3. spans nest strictly within each (pid, tid) track -- no event partially
     overlaps an earlier one;
  4. one trace group (pid) per campaign in the metrics document;
  5. with --chip-spans-per-route N (the pinned CI config uses 48: 3 stages
     x 16 chips of the faulted Revsort(256 -> 192) plan), each campaign's
     "plan.chip" span count equals N x its route_batch_dispatches counter;
  6. each traced campaign's profile.plan.words_routed counter equals its
     total.delivered counter -- or, for fabric campaigns (any
     fabric.hop<k>.* counters present), the sum over hops of
     fabric.hop<k>.sent + fabric.hop<k>.delivered, since a message is
     routed once per hop it traverses.  The counter is REQUIRED on every
     traced campaign: a dispatch that fails to publish its routed-word
     tally would otherwise pass silently.
  7. every exported histogram uses the zero-separating log2 bucket schema:
     bucket 0 admits only the value 0 (upper bound 0) and bucket b >= 1
     admits [2^(b-1), 2^b - 1], so zero-latency fast-path deliveries are
     distinguishable from 1-epoch ones; the bucket weights must sum to the
     histogram's count, and min/max must sit inside the occupied buckets.

Usage:
  tools/check_trace.py TRACE.json METRICS.json [--chip-spans-per-route N]

Exits nonzero with a message on the first violated check.
"""

import argparse
import json
import sys

REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "pid", "tid", "ts", "dur")


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_events_shape(events):
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty list")
    for i, ev in enumerate(events):
        for key in REQUIRED_EVENT_KEYS:
            if key not in ev:
                fail(f"event {i} missing key {key!r}: {ev}")
        if ev["ph"] != "X":
            fail(f"event {i} has ph={ev['ph']!r}, expected complete spans only")
        if ev["ts"] < 0 or ev["dur"] < 0:
            fail(f"event {i} has negative ts/dur: {ev}")


def check_normalized_origin(events):
    min_ts = min(ev["ts"] for ev in events)
    if min_ts != 0:
        fail(f"minimum ts is {min_ts}, expected a normalized origin of 0")


def check_strict_nesting(events):
    tracks = {}
    for ev in events:
        tracks.setdefault((ev["pid"], ev["tid"]), []).append(ev)
    for (pid, tid), track in tracks.items():
        track.sort(key=lambda ev: (ev["ts"], -(ev["ts"] + ev["dur"])))
        open_ends = []  # stack of enclosing span end times
        for ev in track:
            end = ev["ts"] + ev["dur"]
            while open_ends and open_ends[-1] <= ev["ts"]:
                open_ends.pop()
            if open_ends and end > open_ends[-1]:
                fail(
                    f"span {ev['name']!r} [{ev['ts']}, {end}) straddles its "
                    f"enclosing span (ends {open_ends[-1]}) on pid={pid} "
                    f"tid={tid}"
                )
            open_ends.append(end)


def check_against_metrics(events, doc, chip_spans_per_route):
    campaigns = doc.get("campaigns")
    if not campaigns:
        fail("metrics document has no campaigns")
    pids = {ev["pid"] for ev in events}
    if pids != set(range(len(campaigns))):
        fail(
            f"trace pids {sorted(pids)} do not match the {len(campaigns)} "
            "campaigns (one trace group per campaign)"
        )
    for pid, campaign in enumerate(campaigns):
        counters = campaign["metrics"]["counters"]
        if chip_spans_per_route:
            chip_spans = sum(
                1 for ev in events if ev["pid"] == pid and ev["cat"] == "plan.chip"
            )
            expected = chip_spans_per_route * counters["route_batch_dispatches"]
            if chip_spans != expected:
                fail(
                    f"campaign {pid}: {chip_spans} plan.chip spans, expected "
                    f"{chip_spans_per_route} x {counters['route_batch_dispatches']} "
                    f"dispatches = {expected}"
                )
        words = counters.get("profile.plan.words_routed")
        if words is None and campaign["profile"].get("enabled"):
            fail(
                f"campaign {pid}: traced run exported no "
                "profile.plan.words_routed counter"
            )
        if any(k.startswith("fabric.hop") for k in counters):
            # Fabric campaign: every hop a message crosses is one routed word.
            expected_words = sum(
                v
                for k, v in counters.items()
                if k.startswith("fabric.hop")
                and (k.endswith(".sent") or k.endswith(".delivered"))
            )
            words_label = "sum of fabric.hop<k>.{sent,delivered}"
        else:
            expected_words = counters["total.delivered"]
            words_label = "total.delivered"
        if words is not None and words != expected_words:
            fail(
                f"campaign {pid}: profile.plan.words_routed={words} != "
                f"{words_label}={expected_words}"
            )


def check_histograms(doc):
    for pid, campaign in enumerate(doc.get("campaigns", [])):
        for name, h in campaign["metrics"].get("histograms", {}).items():
            where = f"campaign {pid} histogram {name!r}"
            buckets = h["buckets"]
            total = 0
            for b, (upper, weight) in enumerate(buckets):
                expected = 0 if b == 0 else 2**b - 1
                if b >= 64:
                    expected = 2**64 - 1
                if upper != expected:
                    fail(
                        f"{where}: bucket {b} upper bound {upper}, expected "
                        f"{expected} (bucket 0 must hold only the value 0)"
                    )
                total += weight
            if total != h["count"]:
                fail(
                    f"{where}: bucket weights sum to {total}, count is "
                    f"{h['count']}"
                )
            if h["count"]:
                occupied = [b for b, (_, w) in enumerate(buckets) if w]
                lo, hi = occupied[0], occupied[-1]
                lo_min = 0 if lo == 0 else 2 ** (lo - 1)
                if not (lo_min <= h["min"] <= buckets[lo][0]):
                    fail(f"{where}: min {h['min']} outside lowest occupied bucket {lo}")
                hi_min = 0 if hi == 0 else 2 ** (hi - 1)
                if not (hi_min <= h["max"] <= buckets[hi][0]):
                    fail(f"{where}: max {h['max']} outside highest occupied bucket {hi}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace JSON written by pcs_serve")
    parser.add_argument("metrics", help="runtime metrics JSON from the same run")
    parser.add_argument(
        "--chip-spans-per-route",
        type=int,
        default=0,
        metavar="N",
        help="require N plan.chip spans per route_batch dispatch per campaign "
        "(0 = skip; the pinned CI config uses 48)",
    )
    args = parser.parse_args()

    with open(args.trace) as f:
        trace = json.load(f)
    with open(args.metrics) as f:
        doc = json.load(f)

    events = trace.get("traceEvents")
    check_events_shape(events)
    check_normalized_origin(events)
    check_strict_nesting(events)
    check_against_metrics(events, doc, args.chip_spans_per_route)
    check_histograms(doc)
    print(
        f"check_trace: OK: {len(events)} events across "
        f"{len(doc['campaigns'])} campaigns"
    )


if __name__ == "__main__":
    main()
