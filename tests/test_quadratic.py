"""Quadratic Weyl calculus against an independent operator-algebra oracle.

The oracle represents operators as normally ordered noncommutative words in
(x1, x2, p1, p2) with the canonical commutation relation p_k x_k =
x_k p_k - i, quantizes observables by symmetrizing, and computes
[Op(h), i Op(a)] = i (H A - A H) directly.  For polynomials of degree <= 2
this must agree exactly with the closed-form Poisson bracket."""

import math

import numpy as np
import pytest

from channel_spectra import (
    QuadraticObservable,
    commutator_iA,
    conjugate_observable,
    derive_params,
    gen_nogo_scan,
    h0_observable,
    poisson_bracket,
)
from channel_spectra.quadratic import VARIABLES

_ORDER = {"x1": 0, "x2": 1, "p1": 2, "p2": 3}
_CONJUGATE = {"p1": "x1", "p2": "x2"}


def _normal(word, coef, out):
    """Accumulate coef * word into out in normal order (x before p)."""
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if _ORDER[a] > _ORDER[b]:
            _normal(word[:i] + (b, a) + word[i + 2 :], coef, out)
            if _CONJUGATE.get(a) == b:  # p_k x_k = x_k p_k - i
                _normal(word[:i] + word[i + 2 :], coef * (-1j), out)
            return
    out[word] = out.get(word, 0.0) + coef


def _mul(op1, op2):
    out = {}
    for w1, c1 in op1.items():
        for w2, c2 in op2.items():
            _normal(w1 + w2, c1 * c2, out)
    return out


def _quantize(obs):
    """Weyl quantization: sym(v_a v_b) -> (v_a v_b + v_b v_a) / 2."""
    out = {}
    for key, coef in obs.terms().items():
        if key == ():
            _normal((), complex(coef), out)
        elif isinstance(key, str):
            _normal((key,), complex(coef), out)
        else:
            a, b = key
            _normal((a, b), 0.5 * complex(coef), out)
            _normal((b, a), 0.5 * complex(coef), out)
    return out


def _oracle_commutator_iA(h, a):
    """i (H A - A H) on the operator side."""
    ha = _mul(_quantize(h), _quantize(a))
    ah = _mul(_quantize(a), _quantize(h))
    out = {}
    for w, c in ha.items():
        out[w] = out.get(w, 0.0) + 1j * c
    for w, c in ah.items():
        out[w] = out.get(w, 0.0) - 1j * c
    return out


def _max_coeff_diff(op1, op2):
    keys = set(op1) | set(op2)
    return max((abs(op1.get(k, 0.0) - op2.get(k, 0.0)) for k in keys), default=0.0)


def _scaled(lam, obs):
    return QuadraticObservable(lam * obs.quad, lam * obs.lin, lam * obs.const)


def _random_observable(rng):
    m = rng.uniform(-1.0, 1.0, size=(4, 4))
    return QuadraticObservable(
        0.5 * (m + m.T), rng.uniform(-1.0, 1.0, size=4), float(rng.uniform(-1.0, 1.0))
    )


def test_oracle_engine_ccr():
    # sanity of the oracle itself: x1 p1 - p1 x1 = i, disjoint pairs commute
    x1, p1 = {("x1",): 1.0 + 0j}, {("p1",): 1.0 + 0j}
    comm = _mul(x1, p1)
    for w, c in _mul(p1, x1).items():
        comm[w] = comm.get(w, 0.0) - c
    assert _max_coeff_diff(comm, {(): 1j}) < 1e-15
    x2p2 = _mul({("x2",): 1.0 + 0j}, {("p2",): 1.0 + 0j})
    assert _max_coeff_diff(_mul(x1, x2p2), _mul(x2p2, x1)) < 1e-15


def test_weyl_symmetrization_constant():
    obs = QuadraticObservable.from_terms({("x1", "p1"): 1.0})
    # sym(x1 p1) = x1 p1 - i/2 in normal order
    assert _max_coeff_diff(_quantize(obs), {("x1", "p1"): 1.0, (): -0.5j}) < 1e-15


def test_reference_commutator_is_exact():
    p = derive_params(3.0, 4.0)
    comm = commutator_iA(h0_observable(p), conjugate_observable(p))
    target = QuadraticObservable.from_terms({("p1", "p1"): 2.0 * p.beta})
    assert (comm - target).max_abs() < 1e-12
    assert abs(comm.coefficient("p1", "p1") - 1.28) < 1e-14


def test_commutator_matches_operator_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        h = _random_observable(rng)
        a = _random_observable(rng)
        lhs = _quantize(commutator_iA(h, a))
        assert _max_coeff_diff(lhs, _oracle_commutator_iA(h, a)) < 1e-10


def test_poisson_bracket_antisymmetry_and_linearity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f, g, h = (_random_observable(rng) for _ in range(3))
        assert (poisson_bracket(f, g) + poisson_bracket(g, f)).max_abs() < 1e-13
        lam = float(rng.uniform(-2.0, 2.0))
        lin = poisson_bracket(f + _scaled(lam, g), h) - (
            poisson_bracket(f, h) + _scaled(lam, poisson_bracket(g, h))
        )
        assert lin.max_abs() < 1e-12


def test_poisson_bracket_jacobi_identity():
    rng = np.random.default_rng(41)
    for _ in range(30):
        f, g, h = (_random_observable(rng) for _ in range(3))
        total = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        assert total.max_abs() < 1e-12


def test_coordinate_brackets():
    x1 = QuadraticObservable.from_terms({"x1": 1.0})
    p1 = QuadraticObservable.from_terms({"p1": 1.0})
    p2 = QuadraticObservable.from_terms({"p2": 1.0})
    assert poisson_bracket(x1, p1).terms() == {(): 1.0}
    assert poisson_bracket(x1, p2).max_abs() == 0.0
    assert poisson_bracket(p1, p2).max_abs() == 0.0


def test_observable_term_expansions():
    p = derive_params(3.0, 4.0)
    assert h0_observable(p).terms() == {
        ("x2", "x2"): 25.0,
        ("x2", "p1"): 6.0,
        ("p1", "p1"): 1.0,
        ("p2", "p2"): 1.0,
    }
    assert conjugate_observable(p).terms() == {("x1", "p1"): 1.0, ("p1", "p2"): 0.12}


def test_from_terms_coefficient_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(10):
        obs = _random_observable(rng)
        rebuilt = QuadraticObservable.from_terms(obs.terms())
        assert (obs - rebuilt).max_abs() < 1e-14
        for i in range(4):
            for j in range(i, 4):
                a, b = VARIABLES[i], VARIABLES[j]
                assert abs(obs.coefficient(a, b) - rebuilt.coefficient(a, b)) < 1e-14


def test_observable_validation():
    with pytest.raises(ValueError):
        QuadraticObservable(np.zeros((3, 3)), np.zeros(4))
    with pytest.raises(ValueError):
        QuadraticObservable(np.zeros((4, 4)), np.zeros(3))
    skew = np.zeros((4, 4))
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        QuadraticObservable(skew, np.zeros(4))
    with pytest.raises(KeyError):
        QuadraticObservable.from_terms({("x1", "p3"): 1.0})


def test_arithmetic_operations():
    # the sum (acceptance criterion 10 adds the Jacobi cycle) and the
    # difference (the commutator's deviation from 2 beta p1^2), term by term
    f = QuadraticObservable.from_terms({("x1", "x1"): 1.0, "p2": 2.0}, const=1.0)
    g = QuadraticObservable.from_terms({("x1", "x1"): -1.0, "p2": 1.0})
    assert (f + g).terms() == {"p2": 3.0, (): 1.0}
    d = f - g
    assert d.terms() == {("x1", "x1"): 2.0, "p2": 1.0, (): 1.0}
    assert d.coefficient("x1", "x1") == 2.0 and d.coefficient("p2") == 1.0
    assert (f - f).max_abs() == 0.0


@pytest.mark.parametrize("B,alpha", [(3.0, 5.0), (0.0, 1.0), (1.0, 2.0), (10.0, math.sqrt(100.25))])
def test_nogo_scan_verdict(B, alpha):
    report = gen_nogo_scan(B, alpha)
    assert report.verdict == "no-go"
    assert report.x1sq_identically_zero
    assert report.residual_dimension == 3
    assert report.residual_pure_cross
    assert list(report.witness_terms) == [("p1", "p2")]
    assert abs(report.witness_terms[("p1", "p2")]) > 1e-6
    assert len(report.chain) == 6


def test_nogo_scan_forms_one_commutator_per_slot(monkeypatch):
    # the chain reads rows of one 10 x 10 matrix, so a scan forms the
    # commutator with each of the ten quadratic slots once
    from channel_spectra import quadratic

    calls = []

    def counted(h, a):
        calls.append(a)
        return commutator_iA(h, a)

    monkeypatch.setattr(quadratic, "commutator_iA", counted)
    assert quadratic.gen_nogo_scan(3.0, 5.0).verdict == "no-go"
    assert len(calls) == 10


def test_nogo_scan_requires_confinement():
    with pytest.raises(ValueError):
        gen_nogo_scan(1.0, 1.0)
    with pytest.raises(ValueError):
        gen_nogo_scan(2.0, 1.0)
    with pytest.raises(ValueError):
        gen_nogo_scan(1.0, 0.0)


def test_transport_generator_slope_matches_classical_rate():
    # the p1^2 coefficient of [H0, iA] equals the classical growth rate
    # d(p_x S_x)/dt = 2 beta p_x^2 per unit p_x^2
    for B, om in ((3.0, 4.0), (0.0, 1.0), (1.0, 1.0)):
        p = derive_params(B, om)
        comm = commutator_iA(h0_observable(p), conjugate_observable(p))
        assert abs(comm.coefficient("p1", "p1") - 2.0 * p.beta) < 1e-14
