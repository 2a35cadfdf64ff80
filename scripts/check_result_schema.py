#!/usr/bin/env python3
"""Validate fpraker-result-v1 JSON documents.

Every document the experiment API emits (``fpraker run <id>
--json=...`` / ``--json-dir=...``, and documents served by fprakerd)
must satisfy this schema; CI runs the script over the output of
``fpraker run --all``.

    scripts/check_result_schema.py result.json [more.json ...]

Exit status: 0 when every document validates, 1 otherwise.
"""

import json
import re
import sys

SCHEMA = "fpraker-result-v1"
HEX16 = re.compile(r"^[0-9a-f]{16}$")


def _fail(path, errors, message):
    errors.append(f"{path}: {message}")


def _is_scalar(value):
    return isinstance(value, (int, float, str, bool)) or value is None


def validate(path, doc, errors):
    n0 = len(errors)
    if not isinstance(doc, dict):
        _fail(path, errors, "top level is not an object")
        return False

    if doc.get("schema") != SCHEMA:
        _fail(path, errors, f"schema != {SCHEMA!r}: {doc.get('schema')!r}")

    for key in ("experiment", "title", "expectation"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            _fail(path, errors, f"missing/empty string field {key!r}")
    if not isinstance(doc.get("ok"), bool):
        _fail(path, errors, "missing boolean field 'ok'")

    fingerprint = doc.get("fingerprint")
    if not isinstance(fingerprint, str) or not HEX16.match(fingerprint):
        _fail(path, errors,
              f"fingerprint not 16 hex chars: {fingerprint!r}")

    prov = doc.get("provenance")
    if not isinstance(prov, dict):
        _fail(path, errors, "missing object field 'provenance'")
    else:
        digest = prov.get("config_digest")
        if not isinstance(digest, str) or not (
                digest == "" or HEX16.match(digest)):
            _fail(path, errors,
                  f"provenance.config_digest not 16 hex chars: {digest!r}")
        threads = prov.get("threads")
        if not isinstance(threads, int) or isinstance(threads, bool) \
                or threads < 1:
            _fail(path, errors,
                  f"provenance.threads not a positive int: {threads!r}")
        steps = prov.get("sample_steps")
        if not isinstance(steps, int) or isinstance(steps, bool) \
                or steps < 0:
            _fail(path, errors,
                  f"provenance.sample_steps invalid: {steps!r}")
        simd = prov.get("simd_level")
        if simd not in ("scalar", "sse2", "avx2", "avx512"):
            _fail(path, errors,
                  f"provenance.simd_level not a dispatch tier: {simd!r}")
        variants = prov.get("variants")
        if not isinstance(variants, list) or not all(
                isinstance(v, str) for v in variants):
            _fail(path, errors, "provenance.variants not a string list")
        cached = prov.get("cached")
        if not isinstance(cached, bool):
            _fail(path, errors,
                  f"provenance.cached not a boolean: {cached!r}")
        # Optional: only present when the serving layer completed the
        # job past its deadline (never on cached copies).
        if "deadline_overrun_ms" in prov:
            overrun = prov["deadline_overrun_ms"]
            if not isinstance(overrun, int) or isinstance(overrun, bool) \
                    or overrun < 1:
                _fail(path, errors,
                      "provenance.deadline_overrun_ms not a positive "
                      f"int: {overrun!r}")

    scalars = doc.get("scalars")
    if not isinstance(scalars, dict):
        _fail(path, errors, "missing object field 'scalars'")
    else:
        for key, value in scalars.items():
            if not _is_scalar(value):
                _fail(path, errors, f"scalars[{key!r}] not a scalar")

    groups = doc.get("groups")
    if not isinstance(groups, dict):
        _fail(path, errors, "missing object field 'groups'")
    else:
        for gname, group in groups.items():
            if not isinstance(group, dict):
                _fail(path, errors, f"groups[{gname!r}] not an object")
                continue
            for key, value in group.items():
                if not _is_scalar(value):
                    _fail(path, errors,
                          f"groups[{gname!r}][{key!r}] not a scalar")

    tables = doc.get("tables")
    if not isinstance(tables, list):
        _fail(path, errors, "missing array field 'tables'")
    else:
        for i, table in enumerate(tables):
            where = f"tables[{i}]"
            if not isinstance(table, dict):
                _fail(path, errors, f"{where} not an object")
                continue
            if not isinstance(table.get("name"), str) \
                    or not table.get("name"):
                _fail(path, errors, f"{where} missing 'name'")
            headers = table.get("headers")
            if not isinstance(headers, list) or not headers or not all(
                    isinstance(h, str) for h in headers):
                _fail(path, errors, f"{where} headers invalid")
                continue
            rows = table.get("rows")
            if not isinstance(rows, list):
                _fail(path, errors, f"{where} missing 'rows'")
                continue
            for j, row in enumerate(rows):
                if not isinstance(row, list) \
                        or len(row) != len(headers) or not all(
                            isinstance(c, str) for c in row):
                    _fail(path, errors,
                          f"{where}.rows[{j}] arity/type mismatch")

    series = doc.get("series")
    if not isinstance(series, list):
        _fail(path, errors, "missing array field 'series'")
    else:
        for i, s in enumerate(series):
            where = f"series[{i}]"
            if not isinstance(s, dict):
                _fail(path, errors, f"{where} not an object")
                continue
            if not isinstance(s.get("name"), str) or not s.get("name"):
                _fail(path, errors, f"{where} missing 'name'")
            labels = s.get("labels")
            values = s.get("values")
            if not isinstance(labels, list) or not all(
                    isinstance(l, str) for l in labels):
                _fail(path, errors, f"{where} labels invalid")
            elif not isinstance(values, list) or not all(
                    isinstance(v, (int, float)) and
                    not isinstance(v, bool) for v in values):
                _fail(path, errors, f"{where} values invalid")
            elif len(labels) != len(values):
                _fail(path, errors, f"{where} labels/values length "
                                    "mismatch")

    notes = doc.get("notes")
    if not isinstance(notes, list) or not all(
            isinstance(n, str) for n in notes):
        _fail(path, errors, "missing string-array field 'notes'")

    # Optional: the obs-registry snapshot `fpraker run --telemetry`
    # folds in (counters/gauges/histograms sub-objects).
    if "telemetry" in doc:
        telemetry = doc["telemetry"]
        if not isinstance(telemetry, dict):
            _fail(path, errors, "telemetry not an object")
        else:
            for key in ("counters", "gauges", "histograms"):
                if not isinstance(telemetry.get(key), dict):
                    _fail(path, errors,
                          f"telemetry.{key} missing or not an object")

    return len(errors) == n0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    checked = 0
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            _fail(path, errors, f"unreadable: {e}")
            continue
        if validate(path, doc, errors):
            checked += 1
    for message in errors:
        print(f"schema error: {message}", file=sys.stderr)
    print(f"{checked}/{len(argv) - 1} documents validate against "
          f"{SCHEMA}")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
