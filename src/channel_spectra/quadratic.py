"""Weyl calculus for real quadratic observables in (x1, x2, p1, p2).

An observable is

    Op(Q, l, c) = sum_{a,b} Q_ab sym(v_a v_b) + sum_a l_a v_a + c,

with v = (x1, x2, p1, p2), Q real symmetric and sym the symmetrized
product.  For polynomials of degree <= 2 the Moyal expansion truncates, so
the commutator is exactly the Weyl quantization of the Poisson bracket:

    [Op(H), i Op(A)] = Op({A, H}),
    {A, H} = (2 Q_A v + l_A)^T J (2 Q_H v + l_H),    J = [[0, I], [-I, 0]].

The channel Hamiltonian with W = 0 is

    H_0 = p1^2 + p2^2 + 2 B sym(x2 p1) + alpha^2 x2^2,

and the conjugate observable A = sym(x1 p1) + mu p1 p2 satisfies
[H_0, iA] = 2 beta p1^2.  The generator scan shows this cannot be improved
to a definite commutator.  It forms the map A -> [H_0, iA] on the ten
quadratic slots once, as a 10 x 10 matrix, and runs its obstruction chain
on rows of that matrix: once the unbounded-coefficient directions are
removed (x1-dependent coefficients must vanish, and sign constraints force
two more), every surviving quadratic A yields a pure p1 p2 cross term,
which is indefinite unless zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import ChannelParams, derive_params

__all__ = [
    "VARIABLES",
    "QuadraticObservable",
    "poisson_bracket",
    "commutator_iA",
    "h0_observable",
    "conjugate_observable",
    "gen_nogo_scan",
    "NoGoReport",
]

VARIABLES = ("x1", "x2", "p1", "p2")
_IDX = {name: i for i, name in enumerate(VARIABLES)}

# symplectic form in the (x1, x2, p1, p2) ordering: {v_a, v_b} = J[a, b]
_J = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True, eq=False)
class QuadraticObservable:
    """Immutable quadratic observable with symmetric matrix storage."""

    quad: np.ndarray
    lin: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        quad = np.asarray(self.quad, dtype=float)
        lin = np.asarray(self.lin, dtype=float)
        if quad.shape != (4, 4) or lin.shape != (4,):
            raise ValueError("quad must be 4x4 and lin length 4")
        if np.max(np.abs(quad - quad.T)) > 1e-12 * max(1.0, float(np.max(np.abs(quad)))):
            raise ValueError("quad matrix must be symmetric")
        quad = 0.5 * (quad + quad.T)
        quad.setflags(write=False)
        lin = lin.copy()
        lin.setflags(write=False)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "const", float(self.const))

    @classmethod
    def from_terms(cls, terms: dict, const: float = 0.0) -> "QuadraticObservable":
        """Build from human-readable coefficients.

        Keys: ("a", "b") for coef * sym(v_a v_b), "a" for coef * v_a, () for
        a constant shift; the inverse of :meth:`terms`.
        """
        quad = np.zeros((4, 4))
        lin = np.zeros(4)
        for key, coef in terms.items():
            if isinstance(key, str):
                lin[_IDX[key]] += coef
            elif key == ():
                const += coef
            else:
                a, b = (_IDX[k] for k in key)
                if a == b:
                    quad[a, a] += coef
                else:
                    quad[a, b] += 0.5 * coef
                    quad[b, a] += 0.5 * coef
        return cls(quad, lin, const)

    def coefficient(self, *key: str) -> float:
        """Coefficient of sym(v_a v_b) (two names) or v_a (one name)."""
        if len(key) == 1:
            return float(self.lin[_IDX[key[0]]])
        a, b = (_IDX[k] for k in key)
        return float(self.quad[a, a]) if a == b else float(2.0 * self.quad[a, b])

    def terms(self, tol: float = 0.0) -> dict:
        """Human-readable nonzero coefficients, quadratic then linear."""
        out: dict = {}
        for i in range(4):
            for j in range(i, 4):
                c = self.coefficient(VARIABLES[i], VARIABLES[j])
                if abs(c) > tol:
                    out[(VARIABLES[i], VARIABLES[j])] = c
        for i in range(4):
            if abs(self.lin[i]) > tol:
                out[VARIABLES[i]] = float(self.lin[i])
        if abs(self.const) > tol:
            out[()] = self.const
        return out

    def __add__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        return QuadraticObservable(
            self.quad + other.quad, self.lin + other.lin, self.const + other.const
        )

    def __sub__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        return QuadraticObservable(
            self.quad - other.quad, self.lin - other.lin, self.const - other.const
        )

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(self.quad))), float(np.max(np.abs(self.lin))), abs(self.const))


def poisson_bracket(f: QuadraticObservable, g: QuadraticObservable) -> QuadraticObservable:
    """{f, g}: again quadratic, by the symplectic closed form."""
    qf, qg = f.quad, g.quad
    quad = 2.0 * (qf @ _J @ qg - qg @ _J @ qf)
    lin = 2.0 * (qf @ _J @ g.lin - qg @ _J @ f.lin)
    const = float(f.lin @ _J @ g.lin)
    return QuadraticObservable(quad, lin, const)


def commutator_iA(h: QuadraticObservable, a: QuadraticObservable) -> QuadraticObservable:
    """[Op(h), i Op(a)] as a quadratic observable.

    Exact for degree <= 2 (the Moyal series has no higher terms); inputs of
    higher degree are unrepresentable in this type, so nothing is silently
    truncated.
    """
    return poisson_bracket(a, h)


def h0_observable(params: ChannelParams) -> QuadraticObservable:
    """H_0 = p1^2 + p2^2 + 2 B sym(x2 p1) + alpha^2 x2^2."""
    return QuadraticObservable.from_terms(
        {
            ("p1", "p1"): 1.0,
            ("p2", "p2"): 1.0,
            ("x2", "p1"): 2.0 * params.B,
            ("x2", "x2"): params.alpha**2,
        }
    )


def conjugate_observable(params: ChannelParams) -> QuadraticObservable:
    """A = sym(x1 p1) + mu p1 p2, the transport generator."""
    return QuadraticObservable.from_terms({("x1", "p1"): 1.0, ("p1", "p2"): params.mu})


# ---------------------------------------------------------------------------
# generator scan


_SLOTS = [(VARIABLES[i], VARIABLES[j]) for i in range(4) for j in range(i, 4)]  # 10 slots, terms() order


@dataclass(frozen=True)
class NoGoReport:
    """Outcome of the scan over quadratic generators A with bounded flow.

    The scan fixes the sym(x1 p1) coefficient to zero (the one direction
    with an unbounded commutator coefficient already used by the transport
    generator) and asks whether any remaining quadratic A makes [H_0, iA]
    positive on its support.  Every step reads rows of one 10 x 10 matrix,
    the linear map A -> [H_0, iA] on the quadratic slots.  The obstruction
    chain:

      1. the x1^2 row vanishes identically (translation invariance in x1);
      2. killing the x1 x2, sym(x1 p1) and x1 p2 rows is a rank-3
         condition (the 2x2 block has determinant -16 omega^2 != 0);
      3. on the surviving space the x2^2 and p2^2 rows come in the fixed
         ratio -alpha^2, so a sign-definite commutator forces both to zero;
      4. killing the sym(x2 p2) and x2 p1 rows leaves a residual space on
         which only the p1 p2 row is live: a pure cross term, indefinite
         unless zero.

    verdict is "no-go" when the p1 p2 row is not identically zero on the
    residual space, i.e. no admissible A yields a definite commutator.
    """

    B: float
    alpha: float
    verdict: str
    x1sq_identically_zero: bool
    residual_dimension: int
    residual_pure_cross: bool
    witness_terms: dict
    chain: tuple[str, ...]


def gen_nogo_scan(B: float, alpha: float, tol: float = 1e-10) -> NoGoReport:
    """Scan all quadratic generators with the sym(x1 p1) direction removed.

    Forms the commutator matrix once (column j holds the slot coefficients
    of [H_0, i sym(slot j)]) and runs the obstruction chain of
    :class:`NoGoReport` on its rows.  Requires omega^2 = alpha^2 - B^2 > 0
    (the confinement assumption that makes step 2 of the chain a full-rank
    condition).
    """
    if alpha <= 0 or alpha * alpha <= B * B:
        raise ValueError("need alpha > 0 and alpha^2 > B^2 (omega^2 > 0)")
    h0 = h0_observable(derive_params(B, math.sqrt(alpha * alpha - B * B)))
    comms = [commutator_iA(h0, QuadraticObservable.from_terms({slot: 1.0})) for slot in _SLOTS]
    matrix = np.array([[comm.coefficient(*out) for comm in comms] for out in _SLOTS])
    scale = max(1.0, B * B, alpha * alpha)
    chain: list[str] = []

    def rows(*slots):
        return matrix[[_SLOTS.index(slot) for slot in slots]]

    def restrict(space, constraints):
        """The part of the column space on which the constraint rows vanish."""
        functional = constraints @ space
        if np.all(np.abs(functional) < tol * scale):
            return space
        return space @ scipy.linalg.null_space(functional, rcond=tol / scale)

    x1sq_zero = bool(np.max(np.abs(rows(("x1", "x1")))) < tol)
    chain.append("x1^2 output row identically zero" if x1sq_zero else "x1^2 output row NONZERO")

    # freeze the sym(x1 p1) direction of A itself
    freeze = np.eye(len(_SLOTS))[[_SLOTS.index(("x1", "p1"))]]
    x1_coupled = rows(("x1", "x2"), ("x1", "p1"), ("x1", "p2"))
    space = restrict(np.eye(len(_SLOTS)), np.vstack([freeze, x1_coupled]))
    chain.append(f"after removing x1-coupled outputs: dim {space.shape[1]}")

    # fixed ratio x2^2 = -alpha^2 * p2^2 on the surviving space
    x2sq, p2sq = rows(("x2", "x2"), ("p2", "p2"))
    ratio_dev = float(np.max(np.abs((x2sq + alpha * alpha * p2sq) @ space)))
    chain.append(
        f"x2^2 + alpha^2 p2^2 output vanishes on the space (dev {ratio_dev:.1e})"
    )
    space = restrict(space, rows(("x2", "x2")))
    space = restrict(space, rows(("p2", "p2")))
    chain.append(f"after sign constraint (both forced to zero): dim {space.shape[1]}")

    for slot in (("x2", "p1"), ("x2", "p2")):
        space = restrict(space, rows(slot))
    chain.append(f"after removing remaining non-cross outputs: dim {space.shape[1]}")

    # on the residual space every commutator must be a pure p1 p2 term
    values = matrix @ space
    cross = _SLOTS.index(("p1", "p2"))
    live = np.abs(values[cross]) > tol * scale
    # purity is judged on the entries of the quad matrix: off the diagonal
    # each is half its sym(v_a v_b) coefficient
    entries = values / np.array([1.0 if a == b else 2.0 for a, b in _SLOTS])[:, None]
    pure = bool(np.all(np.abs(np.delete(entries, cross, axis=0)) <= tol * scale))
    witness = {}
    if live.any():
        column = values[:, np.argmax(live)]
        witness = {slot: float(v) for slot, v in zip(_SLOTS, column) if abs(v) > tol * scale}
    verdict = "no-go" if (x1sq_zero and pure and live.any()) else "inconclusive"
    chain.append(
        "residual commutators are pure p1 p2 cross terms (indefinite unless zero)"
        if pure
        else "residual commutators NOT pure cross terms"
    )
    return NoGoReport(
        B=float(B),
        alpha=float(alpha),
        verdict=verdict,
        x1sq_identically_zero=x1sq_zero,
        residual_dimension=int(space.shape[1]),
        residual_pure_cross=pure,
        witness_terms=witness,
        chain=tuple(chain),
    )
