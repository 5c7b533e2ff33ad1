"""Fingerprints of the exact values behind `cubeforms check`.

The check suites test supports and verdicts: monomial ``in_span`` looks
only at which coefficients are nonzero, and a unisolvence check only at
invertibility.  So a wrong sign or a wrong magnitude from the packed
product decoder could still print PASS.  These tests hash the exact
values themselves, in a canonical order, and compare them with hashes
recorded with the byte-by-byte slot decoder that the numpy one replaced:

- every pullback that ``check_pullback_inclusions(n, 3, 5)`` makes for
  n = 2 and 3, the same seeded draws as ``cubeforms check``;
- the 27 unisolvence matrices of ``check_unisolvence``, entry by entry as
  Fractions.
"""

import hashlib
from fractions import Fraction

import pytest

from cubeforms import dofs, verify

PULLBACKS = {
    2: (433, "ff5ac6d4e70cfd079695ba491565ebccc36b4d50c9a0e105aaf35ce0e2ab34e6"),
    3: (1656, "89dff1b16679aa7261f1778f27bc826c8b95d31bc0358d74518ed3c8470231a4"),
}
UNISOLVENCE = (27, "a243e4358869b7a009ea478e442e8301c3782deecb4cb2ef23a8c8ea8bc6b3a8")


def form_key(f) -> str:
    """A canonical text of a form: each component's index map, denominator
    and sorted integer terms (the storage is in lowest terms, so equal
    forms give equal text)."""
    comps = sorted(
        (sigma, p.denom, tuple(sorted(p.ints.items()))) for sigma, p in f.components.items()
    )
    return repr((f.n, f.k, comps))


@pytest.mark.parametrize("n", sorted(PULLBACKS))
def test_pullbacks_of_check_are_unchanged(n, monkeypatch):
    digest = hashlib.sha256()
    count = 0
    original = verify.pullback_polynomial

    def recorded(fmap, v):
        nonlocal count
        out = original(fmap, v)
        digest.update(form_key(out).encode())
        count += 1
        return out

    monkeypatch.setattr(verify, "pullback_polynomial", recorded)
    results = verify.check_pullback_inclusions(n, 3, 5)
    assert all(ok for _, ok in results)
    assert (count, digest.hexdigest()) == PULLBACKS[n]


def test_unisolvence_matrices_are_unchanged():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 4):
        for r in range(1, 4):
            for k in range(n + 1):
                matrix, ok = dofs.unisolvence_matrix(r, k, n)
                assert ok
                digest.update(repr([[str(Fraction(x)) for x in row] for row in matrix]).encode())
                count += 1
    assert (count, digest.hexdigest()) == UNISOLVENCE
