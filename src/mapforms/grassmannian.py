"""Forms on the manifold of embedded submanifolds, through representatives.

A point of the non-linear Grassmannian is handled purely through a
representative embedding f: S -> M; the induced form of a p-form on M is
evaluated by contracting sections of TM along the image into the leading
slots and integrating over the submanifold, which is exactly the transgressed
form of the representative.  Representative independence (adding tangential
fields changes nothing) is enforced as a tested invariant, not as an input
requirement.

The codimension-two case with a volume form gives the weak symplectic
structure on unparameterized oriented loops in R^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import ChartMap
from .forms import DegreeError, Form
from .mapspace import (MapPoint, MapTangent, generator_M, hat_gram, hat_map,
                       pushforward_action)

Array = np.ndarray


class EmbeddingError(ValueError):
    """The representative map failed the injectivity or immersion gate."""


@dataclass(frozen=True)
class EmbeddedSubmanifold:
    """An oriented k-dimensional submanifold of R^m represented by an
    embedding; orientation is inherited from the source domain."""

    rep: MapPoint
    min_distance: float
    min_singular_value: float

    @property
    def dim(self) -> int:
        return self.rep.dom.dim

    @property
    def ambient_dim(self) -> int:
        return self.rep.target_dim


# the injectivity and immersion gates of embed
MIN_NODE_DISTANCE = 1e-6
MIN_SINGULAR_VALUE = 1e-6


def embed(rep: MapPoint) -> EmbeddedSubmanifold:
    """Gate a map point as an embedding: positive minimum pairwise nodal
    distance (injectivity proxy) and full-rank tangent map at every node."""
    vals = rep.values
    n = vals.shape[0]
    diff = vals[:, None, :] - vals[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    dist[np.arange(n), np.arange(n)] = np.inf
    dmin = float(dist.min())
    if not dmin > MIN_NODE_DISTANCE:
        raise EmbeddingError(
            f"nodes collide: min pairwise distance {dmin:.3e} <= "
            f"{MIN_NODE_DISTANCE:.1e}")
    Tf = rep.jacobian()
    smin = float(np.linalg.svd(Tf, compute_uv=False)[:, -1].min())
    if not smin > MIN_SINGULAR_VALUE:
        raise EmbeddingError(
            f"tangent map near rank-deficient: min singular value {smin:.3e} "
            f"<= {MIN_SINGULAR_VALUE:.1e}")
    return EmbeddedSubmanifold(rep, dmin, smin)


def section_tangent(N: EmbeddedSubmanifold, section) -> MapTangent:
    """A section of TM along the submanifold as a tangent at the
    representative: a MapTangent (rebased there), a ready-made nodal array,
    or what `generator_M` takes, a VectorField on M or a constant vector."""
    if isinstance(section, MapTangent):
        return section.rebased(N.rep)
    if isinstance(section, np.ndarray):
        return MapTangent(N.rep, np.asarray(section, dtype=float))
    return generator_M(section, N.rep)


def tilda_eval(omega: Form, N: EmbeddedSubmanifold, sections) -> float:
    """Value of the induced (p-k)-form on the Grassmannian at N on the
    classes of the given sections, computed through the representative:
    the sections fill the leading slots of omega and the result is the
    transgressed form at the embedding."""
    if omega.degree < N.dim:
        raise DegreeError(
            f"form degree {omega.degree} below submanifold dim {N.dim}")
    need = omega.degree - N.dim
    sections = list(sections)
    if len(sections) != need:
        raise DegreeError(f"expected {need} sections, got {len(sections)}")
    ts = [section_tangent(N, s) for s in sections]
    return hat_map(omega, N.rep.dom)(N.rep, *ts)


def mw_form(nu: Form, N: EmbeddedSubmanifold):
    """The weak symplectic pairing of a volume form on R^3 at a loop:
    (X, Y) -> integral of the doubly contracted volume over the loop.
    Antisymmetric; vanishes whenever an argument is tangential."""
    if nu.ambient_dim != 3 or nu.degree != 3:
        raise DegreeError("the loop-space pairing needs a volume form on R^3")
    if N.dim != 1 or N.ambient_dim != 3:
        raise DegreeError("the loop-space pairing needs a loop in R^3")

    def pairing(X, Y) -> float:
        return tilda_eval(nu, N, [X, Y])

    return pairing


def diffM_action_on_N(phi: ChartMap, N: EmbeddedSubmanifold) -> EmbeddedSubmanifold:
    """Action of a diffeomorphism of the ambient space, through the
    representative; the image must still pass the embedding gates."""
    return embed(pushforward_action(phi, N.rep))


def tangential_tangent(N: EmbeddedSubmanifold, Z_components: Array) -> MapTangent:
    """A tangential (vertical) field T f ∘ Z along the representative, for
    horizontality tests; Z_components has shape (n_nodes, k)."""
    Tf = N.rep.jacobian()
    vals = np.einsum("imk,ik->im", Tf, np.asarray(Z_components, dtype=float))
    return MapTangent(N.rep, vals)


def mw_gram_matrix(nu: Form, N: EmbeddedSubmanifold) -> Array:
    """Full Gram matrix of the loop-space pairing on the nodal tangent basis,
    assembled from its per-node 3x3 blocks; its kernel is spanned by the
    tangential directions."""
    mw_form(nu, N)  # the degree and dimension gates
    return hat_gram(nu, 1.0, N.rep.dom, N.rep)
