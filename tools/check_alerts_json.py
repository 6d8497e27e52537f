#!/usr/bin/env python3
"""End-to-end smoke test of model-health alerting.

Usage: check_alerts_json.py <path-to-homctl>

Two phases, both on a tiny STAGGER workload built in a temp dir:

Live phase — starts `homctl serve --listen 0` with an SLO tight enough
that the drifting stream must violate it, then polls /alertz until the
`windowed-error-above-slo` rule reaches `firing` (with a fire record and
a finite value), cross-checks `hom.alerts.firing` on /metrics and the
alerts summary on /statusz, queries the windowed-error series over
/timeseriesz in rate mode and polls it in raw mode until a positive
point shows, then SIGTERMs the server and asserts a graceful drain plus
`alert_firing` events in the journal file.

Determinism phase — runs the same monitored `homctl evaluate` twice
(identical flags, fresh process each time) and requires the two journals
to contain the *identical* sequence of (type, record, rule) alert events:
alert transitions must be a pure function of the stream, never of wall
time. Also asserts a custom --alerts-config round-trips through
`homctl alerts --format json` and that a malformed config is rejected.

Exit 0 on success, 1 with FAIL lines otherwise.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

ALERT_RULE = "windowed-error-above-slo"

# How long the live phase polls an endpoint for a state the drifting
# stream must reach.
POLL_SECONDS = 30.0

# Pause between /alertz polls. The SLO rule fires and resolves several
# times in each 8,000-record pass, and a pass takes a few milliseconds
# before serve's 50 ms pause, so a firing spell lasts well under a
# millisecond of wall time. Polling back to back lands in one within a
# fraction of a second; a 0.2 s poll can miss every spell for 30 s.
ALERTZ_POLL_PAUSE = 0.001

# Journal JSONL schema versions this script understands. v2 added the
# header line and optional per-event trace_id/span_id; an unknown version
# must fail loudly rather than silently "validating" a format we cannot
# read.
KNOWN_JOURNAL_SCHEMAS = (1, 2)

TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")
SPAN_ID_RE = re.compile(r"^[0-9a-f]{16}$")


def run(cmd, expect_fail=False):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if expect_fail:
        if proc.returncode == 0:
            raise SystemExit("command unexpectedly succeeded: %s" %
                             " ".join(cmd))
        return proc.stderr
    if proc.returncode != 0:
        raise SystemExit("command failed: %s\n%s%s" %
                         (" ".join(cmd), proc.stdout, proc.stderr))
    return proc.stdout


def fetch(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")


def journal_alert_events(path):
    """Alert (type, record, rule) tuples from a journal JSONL file.

    Also validates the file's framing: a v2 journal opens with a
    {"journal_schema": N, ...} header whose version must be one this
    script knows (a legacy v1 file has no header), and any event that
    carries trace correlation ids must carry them well-formed.
    """
    events = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if lineno == 1 and "journal_schema" in doc:
                schema = doc["journal_schema"]
                if schema not in KNOWN_JOURNAL_SCHEMAS:
                    raise SystemExit(
                        "%s: unknown journal_schema %r (this script knows "
                        "%r)" % (path, schema, KNOWN_JOURNAL_SCHEMAS))
                if not isinstance(doc.get("epoch_unix_us"), int):
                    raise SystemExit(
                        "%s: journal header lacks an integer epoch_unix_us"
                        % path)
                continue
            trace_id = doc.get("trace_id")
            span_id = doc.get("span_id")
            if (trace_id is None) != (span_id is None):
                raise SystemExit(
                    "%s:%d: trace_id and span_id must appear together"
                    % (path, lineno))
            if trace_id is not None and not TRACE_ID_RE.match(trace_id):
                raise SystemExit(
                    "%s:%d: malformed trace_id %r" % (path, lineno, trace_id))
            if span_id is not None and not SPAN_ID_RE.match(span_id):
                raise SystemExit(
                    "%s:%d: malformed span_id %r" % (path, lineno, span_id))
            if not str(doc.get("type", "")).startswith("alert_"):
                continue
            events.append((doc["type"], doc["record"], doc["source"]))
    return events


def live_phase(homctl, model, online, tmp, failures):
    journal = os.path.join(tmp, "serve_journal.jsonl")
    serve = subprocess.Popen(
        [homctl, "serve", "--model", model, "--in", online, "--listen", "0",
         "--slo", "0.0001", "--monitor-every", "50",
         "--journal-out", journal],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        banner = serve.stdout.readline()
        m = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if not m:
            raise SystemExit("no port in serve banner: %r" % banner)
        base = "http://127.0.0.1:%s" % m.group(1)

        # Poll until the SLO rule fires (the drifting stream guarantees
        # windowed error above 0.0001 within the first passes).
        fired = None
        deadline = time.time() + POLL_SECONDS
        while time.time() < deadline and fired is None:
            _, alertz = fetch(base + "/alertz")
            doc = json.loads(alertz)
            for rule in doc.get("rules", []):
                if rule.get("name") == ALERT_RULE and \
                        rule.get("state") == "firing":
                    fired = rule
                    break
            if fired is None:
                time.sleep(ALERTZ_POLL_PAUSE)
        if fired is None:
            failures.append("/alertz: %r never reached firing state" %
                            ALERT_RULE)
        else:
            if fired.get("fired_record", -1) < 0:
                failures.append("/alertz: firing rule has no fired_record")
            if not isinstance(fired.get("value"), (int, float)):
                failures.append("/alertz: firing rule has no finite value")
            if fired.get("fired_count", 0) < 1:
                failures.append("/alertz: firing rule fired_count is zero")

        _, metrics = fetch(base + "/metrics")
        m_firing = re.search(r"^hom_alerts_firing (\S+)$", metrics,
                             re.MULTILINE)
        if not m_firing:
            failures.append("/metrics: no hom_alerts_firing gauge")
        m_trans = re.search(r"^hom_alerts_transitions_total (\S+)$", metrics,
                            re.MULTILINE)
        # The rule may have resolved again by this scrape (the gauge is
        # point-in-time) but the transition counter only grows.
        if fired is not None and (m_trans is None or
                                  float(m_trans.group(1)) < 1):
            failures.append("/metrics: hom_alerts_transitions_total not "
                            "positive after a fire")
        if 'hom_alerts_state{rule="%s"}' % ALERT_RULE not in metrics:
            failures.append("/metrics: no per-rule hom_alerts_state series")

        _, statusz = fetch(base + "/statusz")
        doc = json.loads(statusz)
        summary = doc.get("alerts", {})
        # The rule may legitimately have resolved again between the
        # /alertz poll and this fetch; the transition history cannot
        # un-happen though.
        if fired is not None and summary.get("transitions", 0) < 1:
            failures.append("/statusz: alerts.transitions is zero after "
                            "a fire")
        if fired is not None and not any(
                t.get("rule") == ALERT_RULE and t.get("event") == "fired"
                for t in summary.get("recent_transitions", [])):
            failures.append("/statusz: no fired transition for %r in "
                            "alerts.recent_transitions" % ALERT_RULE)

        series = "hom.serving.windowed_error_rate"
        for mode in ("raw", "rate"):
            # The served model can make no error for a whole 20-tick
            # window, so raw mode polls until a positive point shows.
            deadline = time.time() + POLL_SECONDS
            while True:
                _, payload = fetch(
                    "%s/timeseriesz?series=%s&window=20&mode=%s" %
                    (base, series, mode))
                doc = json.loads(payload)
                points = doc.get("points", [])
                positive = any(
                    isinstance(p["value"], (int, float)) and p["value"] > 0
                    for p in points)
                if mode != "raw" or positive or time.time() >= deadline:
                    break
                time.sleep(0.2)
            if doc.get("mode") != mode or not points:
                failures.append("/timeseriesz %s: no points for %s" %
                                (mode, series))
                continue
            ticks = [p["tick"] for p in points]
            if ticks != sorted(ticks):
                failures.append("/timeseriesz %s: ticks not ascending" % mode)
            if mode == "raw" and not positive:
                failures.append("/timeseriesz raw: windowed error never "
                                "positive within %.0f s" % POLL_SECONDS)

        serve.send_signal(signal.SIGTERM)
        out, _ = serve.communicate(timeout=30)
        if serve.returncode != 0:
            failures.append("serve exit code %s after SIGTERM\n%s" %
                            (serve.returncode, out))
        if "drained on signal" not in out:
            failures.append("serve did not report graceful drain:\n%s" % out)
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.communicate()

    events = journal_alert_events(journal)
    if not any(t == "alert_firing" and r == ALERT_RULE
               for t, _, r in events):
        failures.append("journal: no alert_firing event for %r" % ALERT_RULE)


def determinism_phase(homctl, model, online, tmp, failures):
    journals = []
    for attempt in (1, 2):
        journal = os.path.join(tmp, "eval_journal_%d.jsonl" % attempt)
        run([homctl, "evaluate", "--model", model, "--in", online,
             "--slo", "0.0001", "--monitor-every", "50",
             "--journal-out", journal])
        journals.append(journal_alert_events(journal))
    first, second = journals
    if not first:
        failures.append("determinism: monitored evaluate journaled no "
                        "alert events at this SLO")
    if first != second:
        failures.append("determinism: alert event sequences diverged "
                        "between identical runs:\n  run1=%r\n  run2=%r" %
                        (first[:10], second[:10]))


def config_phase(homctl, tmp, failures):
    # A custom pack must round-trip through the canonical JSON form.
    config = os.path.join(tmp, "alerts.json")
    with open(config, "w", encoding="utf-8") as f:
        json.dump({"rules": [{
            "name": "smoke-error-rule",
            "series": "hom.serving.windowed_error_rate",
            "kind": "threshold", "op": "gt", "threshold": 0.25,
            "for_ticks": 2, "resolve_ticks": 2, "severity": "warn",
            "description": "smoke"}]}, f)
    out = run([homctl, "alerts", "--config", config, "--format", "json"])
    doc = json.loads(out)
    if [r["name"] for r in doc.get("rules", [])] != ["smoke-error-rule"]:
        failures.append("homctl alerts: custom config did not round-trip: "
                        "%r" % out[:200])

    bad = os.path.join(tmp, "bad_alerts.json")
    with open(bad, "w", encoding="utf-8") as f:
        json.dump({"rules": [{"name": "x", "series": "s",
                              "thresold": 1.0}]}, f)
    err = run([homctl, "alerts", "--config", bad], expect_fail=True)
    if "unknown key" not in err:
        failures.append("homctl alerts: typo'd config key not rejected "
                        "loudly: %r" % err[:200])


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    homctl = os.path.abspath(sys.argv[1])
    failures = []

    with tempfile.TemporaryDirectory(prefix="hom_alerts_smoke.") as tmp:
        hist = os.path.join(tmp, "hist.csv")
        online = os.path.join(tmp, "online.csv")
        model = os.path.join(tmp, "model.hom")
        run([homctl, "generate", "--stream", "stagger", "--n", "4000",
             "--out", hist])
        run([homctl, "generate", "--stream", "stagger", "--n", "8000",
             "--seed", "9", "--out", online])
        run([homctl, "build", "--in", hist, "--out", model])

        live_phase(homctl, model, online, tmp, failures)
        determinism_phase(homctl, model, online, tmp, failures)
        config_phase(homctl, tmp, failures)

    if failures:
        for f in failures:
            print("FAIL: %s" % f, file=sys.stderr)
        return 1
    print("alerts smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
