#!/usr/bin/env python3
"""Edit bench gate row files (the JSON that bench/gate.ml writes and reads).

  bench_rows.py doctor BASELINE OUT
      Write a copy of BASELINE that no run can meet: floor bounds move up
      by 1e9, every other row (work, time, ceiling) moves down by 1e9.
      Prints the number of rows, which is how many violations a run gated
      against OUT must report.

  bench_rows.py refresh RUN BASELINE
      Replace BASELINE with the rows of RUN, keeping BASELINE's floor and
      ceiling bounds: a run measures a guard, only a person moves its
      bound. A guard row the old baseline lacks is refused.
"""
import json
import sys

SHIFT = 1e9


def load(path):
    with open(path) as f:
        return json.load(f)


def number(v):
    # the layout of bench/gate.ml's writer, so refreshed baselines diff cleanly
    if float(v).is_integer() and abs(v) < 1e15:
        return "%.0f" % v
    return repr(float(v))


def save(path, rows):
    lines = [
        '  {"suite": %s, "instance": %s, "metric": %s, "kind": %s, "value": %s}'
        % (json.dumps(r["suite"]), json.dumps(r["instance"]),
           json.dumps(r["metric"]), json.dumps(r["kind"]), number(r["value"]))
        for r in rows
    ]
    with open(path, "w") as f:
        f.write("[\n" + ",\n".join(lines) + "\n]\n" if lines else "[]\n")


def key(r):
    return (r["suite"], r["instance"], r["metric"], r["kind"])


def doctor(baseline, out):
    rows = load(baseline)
    for r in rows:
        r["value"] += SHIFT if r["kind"] == "floor" else -SHIFT
    save(out, rows)
    print(len(rows))


def refresh(run, baseline):
    bounds = {key(r): r["value"] for r in load(baseline)
              if r["kind"] in ("floor", "ceiling")}
    rows = load(run)
    for r in rows:
        if r["kind"] in ("floor", "ceiling"):
            if key(r) not in bounds:
                sys.exit("bench_rows: %s/%s/%s is a new %s row: give it a "
                         "bound in %s by hand" % (r["suite"], r["instance"],
                                                  r["metric"], r["kind"],
                                                  baseline))
            r["value"] = bounds[key(r)]
    save(baseline, rows)


if __name__ == "__main__":
    commands = {"doctor": doctor, "refresh": refresh}
    if len(sys.argv) != 4 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    commands[sys.argv[1]](sys.argv[2], sys.argv[3])
