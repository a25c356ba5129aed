"""Trigonometric data the benchmark draws from its seed and keeps.

Every input the benchmark hands to mapforms is built from these sums and
sampled on the grids below, so the oracles can evaluate values, gradients
and bounds on the derivatives in closed form, apart from the program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np


@dataclass(frozen=True)
class Trig:
    """sum_r A[r] * sin(K[r] . x + P[r]) on R^d."""

    K: np.ndarray   # (terms, d)
    A: np.ndarray   # (terms,)
    P: np.ndarray   # (terms,)

    @property
    def dim(self) -> int:
        return self.K.shape[1]

    def value(self, x) -> np.ndarray:
        """Values at points x of shape (N, d)."""
        return np.sin(np.asarray(x) @ self.K.T + self.P) @ self.A

    def grad(self, x) -> np.ndarray:
        """Gradients at points x, shape (N, d)."""
        return (np.cos(np.asarray(x) @ self.K.T + self.P) * self.A) @ self.K

    def d5_bound(self, axis: int) -> float:
        """Bound on |fifth derivative| along one axis, anywhere."""
        return float(np.sum(np.abs(self.A) * np.abs(self.K[:, axis]) ** 5))

    def program(self, mf):
        """The same function as a mapforms ScalarFunc."""
        return mf.trig_scalar(self.dim, self.K, self.A, self.P)


def random_trig(rng, dim: int, terms: int = 2, max_mode: int = 0,
                amp: float = 0.8) -> Trig:
    """Integer modes in [-max_mode, max_mode] when max_mode > 0 (periodic on
    [0, 2pi)^dim), else real modes in [-1, 1]."""
    if max_mode:
        K = rng.integers(-max_mode, max_mode + 1, size=(terms, dim)).astype(float)
    else:
        K = rng.uniform(-1.0, 1.0, size=(terms, dim))
    return Trig(K, amp * rng.uniform(-1.0, 1.0, size=terms),
                rng.uniform(0.0, 2.0 * np.pi, size=terms))


def random_coeffs(rng, dim: int, degree: int, **kw) -> dict:
    """{increasing multi-index: Trig} for a degree-p form on R^dim."""
    return {I: random_trig(rng, dim, **kw)
            for I in itertools.combinations(range(dim), degree)}


def program_form(mf, dim: int, degree: int, coeffs: dict):
    return mf.coefficient_form(dim, degree, {I: c.program(mf) for I, c in coeffs.items()})


def form_value(coeffs: dict, x, vecs) -> np.ndarray:
    """sum_I c_I(x) det[v_a[I_b]] at N points: x (N, d), vecs p arrays (N, d)."""
    x = np.asarray(x)
    total = np.zeros(x.shape[0])
    for I, c in coeffs.items():
        if I:
            M = np.stack([np.asarray(v)[:, list(I)] for v in vecs], axis=1)
            total += c.value(x) * np.linalg.det(M)
        else:
            total += c.value(x)
    return total


def grid(kind: str, n: int):
    """(nodes (N, k), quadrature weights (N,), chart dim) of a source."""
    if kind == "circle":
        return (2 * np.pi * np.arange(n) / n)[:, None], np.full(n, 2 * np.pi / n), 1
    if kind == "torus2":
        x = 2 * np.pi * np.arange(n) / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        return (np.column_stack([X.ravel(), Y.ravel()]),
                np.full(n * n, (2 * np.pi / n) ** 2), 2)
    h = 1.0 / (n - 1)
    w = np.full(n, h)
    ends = np.array([3 / 8, 7 / 6, 23 / 24]) * h      # Gregory end corrections
    w[:3], w[-3:] = ends, ends[::-1]
    return np.linspace(0.0, 1.0, n)[:, None], w, 1


def perm_sign(perm) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def alternation(k: int, r: int):
    """(sign / (r! (k-r)!), first r slots, last k-r slots) over all
    permutations of range(k): the wedge of an r-form and a (k-r)-form on
    k vectors is the sum of sign * a(first) * b(last)."""
    norm = factorial(r) * factorial(k - r)
    for perm in itertools.permutations(range(k)):
        yield perm_sign(perm) / norm, perm[:r], perm[r:]


def vector_values(funcs, x) -> np.ndarray:
    """Stack of component functions at points x -> (N, len(funcs))."""
    return np.column_stack([g.value(x) for g in funcs])


def vector_jacobian(funcs, x) -> np.ndarray:
    """(N, len(funcs), d) analytic Jacobian."""
    return np.stack([g.grad(x) for g in funcs], axis=1)
