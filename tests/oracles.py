"""Reference implementations the tests compare the numeric lab against:
the pushforward of a reference form through one element map, and the
physical-element L2 pairing of two polynomial forms, by quadrature and
exactly.  The library itself never runs them."""

from fractions import Fraction

import numpy as np

from cubeforms.forms import DiffForm, Polynomial, integrate_unit_box
from cubeforms.mapping import MultilinearMap, pullback_polynomial
from cubeforms.meshlab import (
    QuadratureRule,
    TargetForm,
    _check_rule,
    _corner_tables,
    _det_inv,
    _float_view,
    _pushforward,
    _reference_values,
    target_from_form,
)


def target_from_reference(fmap: MultilinearMap, what: DiffForm, label: str = "mapped") -> TargetForm:
    """The pushforward of a reference form through a fixed element map,
    evaluated via the reference points.  Only meaningful on that element."""
    if what.n != fmap.n:
        raise ValueError(f"a {what.n}D form cannot be pushed forward by a {fmap.n}D map")
    coeffs_f = fmap.float_arrays()
    sig_idx, exps, coeffs = _float_view([what], fmap.n, what.k)

    def fn(_xphys, xref):
        _, invs = _det_inv(coeffs_f, _corner_tables(fmap.n, xref)[1])
        hat = _reference_values(exps, coeffs, xref)
        return _pushforward(hat, sig_idx, invs)[:, :, 0]

    return TargetForm(fmap.n, what.k, label, fn)


def discrete_l2_pairing(
    fmap: MultilinearMap, f: DiffForm, g: DiffForm, quad: QuadratureRule
) -> float:
    """Quadrature value of the physical-element L2 pairing of two polynomial
    forms given in physical coordinates."""
    if f.n != g.n or f.k != g.k:
        raise ValueError("form shape mismatch")
    if f.n != fmap.n:
        raise ValueError(f"forms are {f.n}D but the element map is {fmap.n}D")
    _check_rule(fmap.n, quad)
    xref = quad.points
    values, columns = _corner_tables(fmap.n, xref)
    coeffs_f = fmap.float_arrays()
    dets, _ = _det_inv(coeffs_f, columns)
    xphys = values @ coeffs_f
    fv = target_from_form(f).values(xphys, xref)
    gv = target_from_form(g).values(xphys, xref)
    return float(np.sum(quad.weights * dets * np.sum(fv * gv, axis=1)))


def exact_l2_pairing(fmap: MultilinearMap, f: DiffForm, g: DiffForm) -> Fraction:
    """Exact rational value of the same pairing: pull the volume integrand
    back to the reference cube and integrate."""
    if f.n != g.n or f.k != g.k:
        raise ValueError("form shape mismatch")
    n = f.n
    total = Polynomial.zero(n)
    for sigma, pf in f.components.items():
        pg = g.components.get(sigma)
        if pg is not None:
            total = total + pf * pg
    volume_form = DiffForm(n, n, {tuple(range(1, n + 1)): total})
    return integrate_unit_box(pullback_polynomial(fmap, volume_form))
