#!/usr/bin/env python3
"""Bench/experiment output checks.

Baseline mode (default) — compares a fresh bench_hotpath JSON run against
the tracked baseline:

    tools/check_bench.py BENCH_baseline.json bench-out/bench_hotpath.json \
        [--max-regression 0.25]

Every metric under "metrics" in the baseline must be present in the current
run and must not have regressed by more than --max-regression (fractional;
all bench_hotpath metrics are higher-is-better throughputs or speedup
ratios). Likewise every metric the run reports must be in the baseline, so
a new bench row cannot land ungated. Improvements are reported but never
fail the check. Exits non-zero on any regression beyond the threshold, any
missing metric or any metric the baseline lacks.

--metrics NAME[,NAME...] restricts the comparison to a subset of the
baseline's metrics. This lets one tracked baseline file (BENCH_serve.json)
serve several CI jobs that each produce only their slice of the metrics —
serve-smoke gates the plain-serving numbers, crash-recovery-smoke the
wal_-prefixed ones — without each job failing on the other's "missing"
metrics. With --metrics, run metrics outside the subset are not checked
either way.

ResultDoc mode — validates the schema of eval::ResultDoc JSON files (as
written by `sbx_experiments run/sweep --out-dir`):

    tools/check_bench.py validate-resultdoc sweep-out/*.json

Checks the document structure the registry serializer promises: experiment
name, string-to-string config, numeric metrics, rectangular string tables,
equal-length numeric series, and a string report. Exits non-zero on the
first malformed file.
"""
import argparse
import json
import sys


def check_baseline(args) -> int:
    with open(args.baseline) as f:
        baseline = json.load(f)["metrics"]
    with open(args.current) as f:
        current = json.load(f)["metrics"]

    if args.metrics:
        wanted = [name.strip() for name in args.metrics.split(",")
                  if name.strip()]
        missing = [name for name in wanted if name not in baseline]
        if missing:
            print(f"--metrics names not in baseline: {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        baseline = {name: baseline[name] for name in wanted}

    # Without --metrics the baseline must cover the whole run: a row the
    # bench reports but the baseline lacks would otherwise go ungated.
    unbaselined = ([] if args.metrics else
                   sorted(name for name in current if name not in baseline))

    failures = []
    width = max(len(name) for name in [*baseline, *unbaselined])
    print(f"{'metric':<{width}}  {'baseline':>14}  {'current':>14}  change")
    for name in unbaselined:
        failures.append(f"{name}: in the current run but not in the "
                        "baseline (record it there)")
        print(f"{name:<{width}}  {'MISSING':>14}  {current[name]:>14.2f}")
    for name, base_value in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from current run")
            print(f"{name:<{width}}  {base_value:>14.2f}  {'MISSING':>14}")
            continue
        value = current[name]
        change = (value - base_value) / base_value if base_value else 0.0
        flag = ""
        if change < -args.max_regression:
            flag = "  << REGRESSION"
            failures.append(
                f"{name}: {base_value:.2f} -> {value:.2f} "
                f"({change:+.1%}, allowed -{args.max_regression:.0%})")
        print(f"{name:<{width}}  {base_value:>14.2f}  {value:>14.2f}  "
              f"{change:+7.1%}{flag}")

    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) missing or regressed "
              f"beyond {args.max_regression:.0%}:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print(f"\nOK: no metric regressed beyond {args.max_regression:.0%}")
    return 0


def _fail(path: str, message: str) -> None:
    raise ValueError(f"{path}: {message}")


def validate_resultdoc(path: str) -> None:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        _fail(path, "top level is not an object")

    for key in ("experiment", "attack", "config", "metrics", "tables",
                "series", "report"):
        if key not in doc:
            _fail(path, f"missing key '{key}'")

    if not isinstance(doc["experiment"], str) or not doc["experiment"]:
        _fail(path, "'experiment' is not a non-empty string")

    # Every document names the attack it exercised and its Barreno-Nelson
    # taxonomy coordinates (eval::tag_attack).
    attack = doc["attack"]
    if not isinstance(attack, dict):
        _fail(path, "'attack' is not an object")
    for key in ("name", "taxonomy"):
        if not isinstance(attack.get(key), str) or not attack[key]:
            _fail(path, f"attack['{key}'] is not a non-empty string")

    if not isinstance(doc["config"], dict):
        _fail(path, "'config' is not an object")
    for key, value in doc["config"].items():
        if not isinstance(value, str):
            _fail(path, f"config['{key}'] is not a string")

    if not isinstance(doc["metrics"], dict):
        _fail(path, "'metrics' is not an object")
    for key, value in doc["metrics"].items():
        # null is the serializer's spelling of a non-finite double.
        if not (value is None or isinstance(value, (int, float))):
            _fail(path, f"metrics['{key}'] is not a number or null")

    if not isinstance(doc["tables"], dict):
        _fail(path, "'tables' is not an object")
    for name, table in doc["tables"].items():
        if not isinstance(table, dict):
            _fail(path, f"tables['{name}'] is not an object")
        headers = table.get("headers")
        rows = table.get("rows")
        if (not isinstance(headers, list) or not headers
                or not all(isinstance(h, str) for h in headers)):
            _fail(path, f"tables['{name}'].headers is not a non-empty "
                        "string list")
        if not isinstance(rows, list):
            _fail(path, f"tables['{name}'].rows is not a list")
        for i, row in enumerate(rows):
            if (not isinstance(row, list) or len(row) != len(headers)
                    or not all(isinstance(c, str) for c in row)):
                _fail(path, f"tables['{name}'].rows[{i}] is not a "
                            f"{len(headers)}-cell string list")

    if not isinstance(doc["series"], list):
        _fail(path, "'series' is not a list")
    for i, series in enumerate(doc["series"]):
        if not isinstance(series, dict) or not isinstance(
                series.get("name"), str):
            _fail(path, f"series[{i}] has no string name")
        x, y = series.get("x"), series.get("y")
        for axis, values in (("x", x), ("y", y)):
            if not isinstance(values, list) or not all(
                    value is None or isinstance(value, (int, float))
                    for value in values):
                _fail(path, f"series[{i}].{axis} is not a number list")
        if len(x) != len(y):
            _fail(path, f"series[{i}] has mismatched x/y lengths")

    if not isinstance(doc["report"], list) or not all(
            isinstance(line, str) for line in doc["report"]):
        _fail(path, "'report' is not a string list")


def check_resultdocs(paths) -> int:
    if not paths:
        print("validate-resultdoc: no files given", file=sys.stderr)
        return 1
    for path in paths:
        try:
            validate_resultdoc(path)
        except ValueError as e:
            # _fail() messages already carry the path; json.JSONDecodeError
            # (a ValueError subclass) does not.
            message = str(e)
            if not message.startswith(path):
                message = f"{path}: {message}"
            print(f"FAIL: {message}", file=sys.stderr)
            return 1
        except (KeyError, OSError) as e:
            print(f"FAIL: {path}: {e}", file=sys.stderr)
            return 1
        print(f"OK: {path}")
    print(f"\nOK: {len(paths)} ResultDoc(s) valid")
    return 0


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "validate-resultdoc":
        return check_resultdocs(sys.argv[2:])

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="tracked BENCH_baseline.json")
    parser.add_argument("current", help="fresh bench_hotpath --json output")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional drop per metric "
                             "(default 0.25)")
    parser.add_argument("--metrics", default="",
                        help="comma-separated subset of baseline metrics "
                             "to compare (default: all)")
    return check_baseline(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
