"""Frozen Suzuki span certificates: criterion 11's seeds, degrees 3..101.

`data/suzuki_golden.json` maps each e in 1..50 to the SHA-256 of
`SpanCertificate.to_json()` for `suzuki_search(e, seed=2024 + e)`, the
certificates criterion 11 checks at the full tier. The file was written by
the search that folded its own precomputed Frobenius map, before
`FieldCtx.frobenius` became the only path; equal hashes show that the same
random numbers were drawn and the same elements and pairs kept.
Regenerate it (only when a certificate is meant to change) with

    PYTHONPATH=src python tests/test_suzuki_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from kinderlab import twisted

GOLDEN = Path(__file__).parent / "data" / "suzuki_golden.json"
E_RANGE = range(1, 51)


def _digest(e: int) -> str:
    cert = twisted.suzuki_search(e, seed=2024 + e)
    return hashlib.sha256(cert.to_json().encode()).hexdigest()


@pytest.mark.parametrize("e", E_RANGE)
def test_certificate_matches_golden(e):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(e) == golden[str(e)]


def test_golden_covers_criterion_11():
    assert set(json.loads(GOLDEN.read_text())) == {str(e) for e in E_RANGE}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({str(e): _digest(e) for e in E_RANGE}, indent=1) + "\n")
