"""Fingerprints of the exact values behind `cubeforms check`.

The check suites test supports and verdicts: monomial ``in_span`` looks
only at which coefficients are nonzero, and a unisolvence check only at
invertibility.  So a wrong sign or a wrong magnitude from the packed
product decoder could still print PASS.  These tests hash the exact
values themselves, in a canonical order, and compare them with hashes
recorded with the byte-by-byte slot decoder that the numpy one replaced:

- every pullback behind ``check_pullback_inclusions(n, 3, 5)`` for n = 2
  and 3, the same seeded draws as ``cubeforms check``, in the order in which
  the check once made them one form at a time;
- the 27 unisolvence matrices of ``check_unisolvence``, entry by entry as
  Fractions.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from cubeforms import dofs, verify
from cubeforms.mapping import _pullbacks, pullback_polynomial
from cubeforms.spaces import build_P

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
def test_pullbacks_of_check_are_unchanged(n):
    # The sequence check_pullback_inclusions(n, 3, 5) once made one form at a
    # time, rebuilt from the same seeded draws: per map and k, each basis
    # form's multilinear then affine pullback, here decoded form by form from
    # the batched tables; then F*(dv), F*v per sample form v, and F*(v ^ w),
    # F*v, F*w per pair.
    assert all(ok for _, ok in verify.check_pullback_inclusions(n, 3, 5))
    rng = random.Random(2024)
    pulled = []
    for _ in range(5):
        fmap = verify.random_rational_multilinear(n, rng)
        amap = verify.random_rational_affine(n, rng)
        for k in range(n + 1):
            basis = build_P(3, k, n).basis
            tables = _pullbacks(fmap, basis), _pullbacks(amap, basis)
            pulled += [table.form(i) for i in range(len(basis)) for table in tables]
    fmap = verify.random_rational_multilinear(n, rng)
    forms = verify._sample_forms(n)
    for v in forms:
        pulled += [pullback_polynomial(fmap, v.d()), pullback_polynomial(fmap, v)]
    for v in forms:
        for w in forms:
            pulled += [pullback_polynomial(fmap, f) for f in (v.wedge(w), v, w)]
    digest = hashlib.sha256()
    for f in pulled:
        digest.update(form_key(f).encode())
    assert (len(pulled), digest.hexdigest()) == PULLBACKS[n]


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
