"""Fingerprint of a compare run's well-typed term stream.

The fingerprint is the first 16 hex digits of the SHA-256 of the compared
terms, as langx renders them, one per line in order.  It changes exactly
when the generator or the typecheck filter hands `compare` other terms.

Recompute the figure the benchmark prints for a compare seed S:

    PYTHONPATH=src python3 -m langx --format structured compare \\
        fixtures/langfunny.lang --count 5000 --max-size 10 --seed S \\
        | python3 perfbench/fingerprint.py
"""

from __future__ import annotations

import hashlib
import json
import sys


def fingerprint(terms) -> str:
    digest = hashlib.sha256()
    for term in terms:
        digest.update(term.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def compared_terms(lines):
    """The `term` of every `compare` record in structured output."""
    for line in lines:
        line = line.strip()
        if line.startswith("{"):
            record = json.loads(line)
            if record.get("kind") == "compare":
                yield record["term"]


if __name__ == "__main__":
    print(fingerprint(compared_terms(sys.stdin)))
