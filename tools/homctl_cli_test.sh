#!/bin/sh
# Exit-code contract test for homctl (ISSUE PR4 satellite b): every error
# path must print "homctl: <code>: <message>" to stderr and exit nonzero;
# success paths exit 0 and keep stderr quiet. Run as:
#
#   tools/homctl_cli_test.sh <path-to-homctl>
#
# Registered in tests/CMakeLists.txt as ctest target homctl_cli_test.
set -u

HOMCTL=${1:?usage: homctl_cli_test.sh <path-to-homctl>}
WORK=$(mktemp -d homctl_cli_test.XXXXXX) || exit 1
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

# expect <name> <want_exit> <want_stderr_regex|-> -- <homctl args...>
expect() {
  name=$1 want=$2 pattern=$3
  shift 4
  out="$WORK/$name.out" err="$WORK/$name.err"
  "$HOMCTL" "$@" >"$out" 2>"$err"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: exit $got, want $want" >&2
    sed 's/^/  stderr: /' "$err" >&2
    FAILURES=$((FAILURES + 1))
    return
  fi
  if [ "$pattern" != "-" ] && ! grep -Eq "$pattern" "$err"; then
    echo "FAIL $name: stderr does not match /$pattern/" >&2
    sed 's/^/  stderr: /' "$err" >&2
    FAILURES=$((FAILURES + 1))
    return
  fi
  # Errors must be on stderr with the homctl: prefix, never bare (the
  # usage screen for a missing/unknown command is the one exception).
  if [ "$want" -ne 0 ] && [ "$pattern" != "usage: homctl" ] &&
     ! grep -q '^homctl: ' "$err"; then
    echo "FAIL $name: nonzero exit but no 'homctl: ' line on stderr" >&2
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "ok $name"
}

# --- argument and dispatch errors ---------------------------------------
expect no_command 1 'usage: homctl' --
expect unknown_command 2 'usage: homctl' -- frobnicate
expect bare_positional 1 'options start with --' -- build stray
expect missing_value 1 'missing its value' -- generate --out
expect empty_option 1 "empty option name" -- generate --
expect unknown_stream 1 "unknown stream 'nope'" -- \
  generate --stream nope --out "$WORK/x.csv"
expect build_needs_in 1 'requires --in' -- build
# Options a command does not read are rejected, not silently ignored.
expect unknown_option 1 "unknown option --bogus-flag for 'generate'" -- \
  generate --stream stagger --n 100 --seed 1 --bogus-flag 7 \
  --out "$WORK/x.csv"
expect misspelled_option 1 "unknown option --labelled for 'evaluate'" -- \
  evaluate --labelled 0.1
expect other_commands_option 1 \
  "unknown option --replicate-to for 'evaluate'" -- \
  evaluate --replicate-to 127.0.0.1:9
expect evaluate_needs_in 1 'requires --in' -- evaluate

# --- missing / corrupt artifacts ----------------------------------------
expect missing_csv 1 'IoError' -- \
  build --stream stagger --in "$WORK/absent.csv" --out "$WORK/m.hom"
expect missing_model 1 'IoError' -- inspect --model "$WORK/absent.hom"
expect missing_checkpoint 1 'IoError' -- checkpoint "$WORK/absent.homc"
printf 'garbage' > "$WORK/bad.hom"
expect corrupt_model 1 'InvalidArgument' -- inspect --model "$WORK/bad.hom"
printf 'garbage' > "$WORK/bad.homc"
expect corrupt_checkpoint 1 'InvalidArgument' -- checkpoint "$WORK/bad.homc"

# --- the happy path, end to end -----------------------------------------
expect generate_ok 0 - -- \
  generate --stream stagger --n 3000 --seed 5 --out "$WORK/hist.csv"
expect build_ok 0 - -- \
  build --stream stagger --in "$WORK/hist.csv" --out "$WORK/m.hom" --seed 5
expect generate_online_ok 0 - -- \
  generate --stream stagger --n 2000 --seed 6 --out "$WORK/online.csv"
expect evaluate_ok 0 - -- \
  evaluate --model "$WORK/m.hom" --in "$WORK/online.csv"
expect bad_policy 1 'unknown input policy' -- \
  evaluate --model "$WORK/m.hom" --in "$WORK/online.csv" \
  --input-policy shrug
expect checkpoint_roundtrip 0 - -- \
  evaluate --model "$WORK/m.hom" --in "$WORK/online.csv" \
  --stop-after 500 --checkpoint-out "$WORK/ck.homc"
expect resume_ok 0 - -- \
  evaluate --model "$WORK/m.hom" --in "$WORK/online.csv" \
  --resume "$WORK/ck.homc"
expect checkpoint_inspect_ok 0 - -- \
  checkpoint "$WORK/ck.homc" --model "$WORK/m.hom"

# A checkpoint only resumes onto the model it was captured from.
expect generate_other_ok 0 - -- \
  generate --stream sea --n 3000 --seed 5 --out "$WORK/sea.csv"
expect build_other_ok 0 - -- \
  build --stream sea --in "$WORK/sea.csv" --out "$WORK/sea.hom" --seed 5
expect fingerprint_mismatch 1 'fingerprint' -- \
  checkpoint "$WORK/ck.homc" --model "$WORK/sea.hom"
expect resume_wrong_model 1 'fingerprint|schema' -- \
  evaluate --model "$WORK/sea.hom" --in "$WORK/sea.csv" \
  --resume "$WORK/ck.homc"

# Malformed CSV: strict policy fails with file:line, skip policy succeeds.
printf '1,2\nnot,a,row\n' > "$WORK/ragged.csv"
expect strict_csv 1 'ragged.csv:[0-9]+' -- \
  evaluate --model "$WORK/m.hom" --in "$WORK/ragged.csv" \
  --input-policy error

# --- live introspection flags -------------------------------------------
expect serve_needs_in 1 'requires --in' -- serve --model "$WORK/m.hom"
expect serve_missing_model 1 'IoError' -- \
  serve --model "$WORK/absent.hom" --in "$WORK/online.csv"
expect listen_needs_value 1 'missing its value' -- \
  evaluate --model "$WORK/m.hom" --in "$WORK/online.csv" --listen
expect evaluate_metrics_ok 0 - -- \
  evaluate --model "$WORK/m.hom" --in "$WORK/online.csv" \
  --metrics-out "$WORK/telemetry.json"
expect stats_bad_format 1 "unknown --format" -- \
  stats --in "$WORK/telemetry.json" --format bogus
expect stats_prometheus_ok 0 - -- \
  stats --in "$WORK/telemetry.json" --format prometheus
if ! grep -q '^# TYPE ' "$WORK/stats_prometheus_ok.out"; then
  echo "FAIL stats_prometheus_ok: no '# TYPE' lines on stdout" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok stats_prometheus_output"
fi

# --- alert rules ---------------------------------------------------------
expect alerts_default_ok 0 - -- alerts
expect alerts_json_ok 0 - -- alerts --format json
if ! grep -q '"windowed-error-above-slo"' "$WORK/alerts_json_ok.out"; then
  echo "FAIL alerts_json_ok: default pack missing the SLO rule" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok alerts_json_output"
fi
expect alerts_missing_config 1 'IoError' -- \
  alerts --config "$WORK/absent_alerts.json"
printf '{"rules": [{"name": "x"}]}' > "$WORK/bad_alerts.json"
expect alerts_invalid_config 1 'series is required' -- \
  alerts --config "$WORK/bad_alerts.json"
expect alerts_bad_format 1 "unknown --format" -- alerts --format bogus
expect evaluate_bad_alerts_config 1 'series is required' -- \
  evaluate --model "$WORK/m.hom" --in "$WORK/online.csv" \
  --alerts-config "$WORK/bad_alerts.json"
printf '{"rules": [{"name": "tight", "series": "hom.serving.windowed_error_rate", "threshold": 0.0001, "for_ticks": 2, "severity": "page"}]}' \
  > "$WORK/tight_alerts.json"
expect evaluate_custom_alerts_ok 0 - -- \
  evaluate --model "$WORK/m.hom" --in "$WORK/online.csv" \
  --alerts-config "$WORK/tight_alerts.json" --monitor-every 50
if ! grep -q '^alerts: ' "$WORK/evaluate_custom_alerts_ok.out"; then
  echo "FAIL evaluate_custom_alerts_ok: no alerts summary line" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok evaluate_alerts_summary"
fi

# --- replication / swap -------------------------------------------------
expect swap_needs_target 1 'requires --target' -- swap --model "$WORK/m.hom"
expect swap_needs_model 1 'requires --model' -- swap --target 127.0.0.1:9
expect swap_bad_target 1 'expected host:port' -- \
  swap --target nocolon --model "$WORK/m.hom"
expect swap_bad_port 1 'port out of range' -- \
  swap --target 'host:0' --model "$WORK/m.hom"
expect swap_missing_model 1 'IoError' -- \
  swap --target 127.0.0.1:9 --model "$WORK/absent.hom"
expect serve_bad_replicate_to 1 'expected host:port' -- \
  serve --model "$WORK/m.hom" --in "$WORK/online.csv" \
  --replicate-to nocolon
expect serve_zero_ship_every 1 'ship-every must be positive' -- \
  serve --model "$WORK/m.hom" --in "$WORK/online.csv" \
  --replicate-to 127.0.0.1:9 --ship-every 0

# --- chaos sweep (small but real) ---------------------------------------
expect chaos_ok 0 - -- chaos --seed 17 --trials 9 --dir "$WORK/chaos"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES homctl CLI check(s) failed" >&2
  exit 1
fi
echo "all homctl CLI checks passed"
