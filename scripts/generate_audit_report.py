#!/usr/bin/env python3
"""Regenerate reports/corollary_audit.json from the audit grid.

The report compares the printed specialized conditions against direct
substitution into the general conditions, criterion by criterion, and
records the pinned reference point where the modified-kind starlike pair
splits.  Output is deterministic, json.dumps(report, sort_keys=True,
indent=2) and a LF; the committed artifact must match a fresh run byte for
byte (the test suite enforces this).
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from besselgeom.conditions import consistency_audit  # noqa: E402


def main() -> int:
    report = consistency_audit()
    out = pathlib.Path(__file__).resolve().parents[1] / "reports" / "corollary_audit.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
