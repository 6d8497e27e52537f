#!/usr/bin/env python3
"""Validates a folded stack profile (the `--profile-out` / /profilez /
HOM_BENCH_PROFILE=1 output format, flamegraph.pl's "collapsed" input).

Checks, per file:
  * non-empty, and every line is "frame[;frame...] <count>" with a
    positive integer count;
  * frames are non-empty and contain no tabs or control characters;
    plain spaces are fine — demangled C++ signatures are full of them,
    and the folded format only reserves ';' and the trailing count;
  * no duplicate stacks (the writer aggregates before emitting);
  * no stack ends in the profiler's own SIGPROF handler
    (hom_prof_signal_handler): every sample must be charged to the
    function the signal interrupted;
  * unless --allow-unsymbolized, at least one frame resolves into the
    project namespace (hom::) — an all-hex profile means frame pointers
    or -rdynamic regressed.

Usage:
    tools/check_folded_profile.py [--allow-unsymbolized] FILE [FILE ...]

Exits 0 when every file conforms, 1 otherwise, printing one line per
problem. Only the Python standard library is used.
"""

import argparse
import sys

# The sampling profiler's signal handler (src/obs/prof.cc). The profiler
# drops it from every sample, so a leaf with this name means the capture
# prologue leaked into the profile.
HANDLER_FRAME = "hom_prof_signal_handler"


def _err(path, message):
    print(f"{path}: {message}")
    return 1


def check_file(path, allow_unsymbolized=False):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return _err(path, str(e))

    failures = 0
    if not lines:
        return _err(path, "empty profile (no samples captured)")

    seen_stacks = set()
    total_samples = 0
    saw_hom_frame = False
    for i, line in enumerate(lines, start=1):
        where = f"line {i}"
        if not line:
            failures += _err(path, f"{where}: blank line")
            continue
        stack, sep, count_text = line.rpartition(" ")
        if not sep or not stack:
            failures += _err(path, f"{where}: expected 'stack count', got {line!r}")
            continue
        if not count_text.isdigit() or int(count_text) < 1:
            failures += _err(
                path, f"{where}: expected a positive integer count, got {count_text!r}"
            )
            continue
        total_samples += int(count_text)
        if stack in seen_stacks:
            failures += _err(path, f"{where}: duplicate stack {stack!r}")
        seen_stacks.add(stack)
        frames = stack.split(";")
        if frames[-1] == HANDLER_FRAME:
            failures += _err(
                path, f"{where}: leaf frame is the profiler's signal handler "
                f"{HANDLER_FRAME!r}"
            )
        for frame in frames:
            if not frame:
                failures += _err(path, f"{where}: empty frame in {stack!r}")
            elif any(c == "\t" or ord(c) < 0x20 for c in frame):
                failures += _err(
                    path, f"{where}: control character in frame {frame!r}"
                )
            if "hom::" in frame:
                saw_hom_frame = True

    if total_samples == 0:
        failures += _err(path, "zero total samples")
    if not saw_hom_frame and not allow_unsymbolized:
        failures += _err(
            path,
            "no frame symbolizes into hom:: (frame pointers or -rdynamic "
            "regressed; pass --allow-unsymbolized for foreign profiles)",
        )
    return failures


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate folded stack profiles."
    )
    parser.add_argument("--allow-unsymbolized", action="store_true",
                        help="accept profiles with no hom:: frames")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv[1:])

    failures = 0
    for path in args.files:
        n = check_file(path, allow_unsymbolized=args.allow_unsymbolized)
        if n == 0:
            print(f"{path}: OK")
        failures += n
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
