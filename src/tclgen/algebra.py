"""Superoperator algebra on a finite-dimensional system Hilbert space.

Density matrices are vectorized by column stacking, ``vec(rho) =
rho.reshape(-1, order='F')``, so the map ``rho -> A rho B`` has the matrix
representation ``kron(B.T, A)``.  A superoperator is stored densely as a
``d^2 x d^2`` complex matrix.

Interaction-picture system operators are generated from the cached
eigendecomposition of H_S: X(t) = exp(+i H_S t) X exp(-i H_S t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SystemModel",
    "SuperOp",
    "vec",
    "unvec",
]

_HERM_TOL = 1e-12


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a d x d matrix into a d^2 vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class SuperOp:
    """Dense linear map on vectorized density matrices."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim**2, self.dim**2):
            raise ValueError(
                f"superoperator matrix must be {self.dim**2} x {self.dim**2}, "
                f"got {m.shape}"
            )
        object.__setattr__(self, "matrix", m)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)

    def norm_fro(self) -> float:
        return float(np.linalg.norm(self.matrix))


@dataclass(frozen=True)
class SystemModel:
    """System Hamiltonian, coupling operator and coupling strength.

    ``h_sys`` and ``coupling`` must be Hermitian d x d matrices (checked to
    1e-12); ``alpha`` is the dimensionless coupling constant multiplying the
    interaction.
    """

    dim: int
    h_sys: np.ndarray
    coupling: np.ndarray
    alpha: float

    def __post_init__(self):
        h = np.asarray(self.h_sys, dtype=complex)
        x = np.asarray(self.coupling, dtype=complex)
        if self.dim < 2:
            raise ValueError(f"system dimension must be >= 2, got {self.dim}")
        for name, m in (("h_sys", h), ("coupling", x)):
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"{name} must be {self.dim} x {self.dim}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} entries must be finite")
            if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
                raise ValueError(f"{name} is not Hermitian within {_HERM_TOL}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        object.__setattr__(self, "h_sys", h)
        object.__setattr__(self, "coupling", x)
        object.__setattr__(self, "alpha", float(self.alpha))

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(self.h_sys)
        return w, v

    @cached_property
    def _coupling_eigbasis(self) -> np.ndarray:
        w, v = self._eig
        return v.conj().T @ self.coupling @ v

    @cached_property
    def _bohr_matrix(self) -> np.ndarray:
        # antisymmetric matrix of eigenvalue differences w_a - w_b
        w, _ = self._eig
        return w[:, None] - w[None, :]

    @cached_property
    def _eig_superops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # kron(conj(V), V), which takes a superoperator from the eigenbasis of
        # H_S to the site basis, and the brackets of X in the eigenbasis
        _, v = self._eig
        x = self._coupling_eigbasis[None]
        return (np.kron(v.conj(), v), commutator_super_batch(x)[0],
                anticommutator_super_batch(x)[0])


def heisenberg_X_batch(
    model: SystemModel, ts: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """X(t) for an array of times; returns shape (len(ts), d, d).

    With ``weights`` of shape (B, K, C) and ``ts`` of shape (B, C), returns
    the K weighted sums ``sum_c weights[b, k, c] X(ts[b, c])`` per row,
    shape (B, K, d, d).  In the eigenbasis of H_S, X(s) has the entries
    X_ab e^{i w_a s} e^{-i w_b s}, d exponentials per time; the sums over c
    are one batched product (B, K, C) @ (B, C, d^2) on those phases, taken
    before the change of basis.
    """
    ts = np.asarray(ts, dtype=float)
    w, v = model._eig
    rot = np.exp(1j * np.multiply.outer(ts, w))
    phases = np.einsum("...a,...b->...ab", rot, rot.conj())
    if weights is not None:
        batch, nodes, d = rot.shape
        phases = (weights @ phases.reshape(batch, nodes, d * d)).reshape(
            batch, weights.shape[1], d, d)
    return v @ (model._coupling_eigbasis * phases) @ v.conj().T


def _kron_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched Kronecker product over the leading axis."""
    ba, bb = a.shape[0], b.shape[0]
    if ba != bb:
        raise ValueError("batch size mismatch")
    p, q = a.shape[1], a.shape[2]
    r, s = b.shape[1], b.shape[2]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(ba, p * r, q * s)


def commutator_super_batch(xs: np.ndarray) -> np.ndarray:
    """Batched matrices of rho -> [x, rho] for a stack of operators."""
    d = xs.shape[-1]
    eye = np.broadcast_to(np.eye(d, dtype=complex), xs.shape)
    return _kron_batch(eye, xs) - _kron_batch(np.transpose(xs, (0, 2, 1)), eye)


def anticommutator_super_batch(xs: np.ndarray) -> np.ndarray:
    """Batched matrices of rho -> {x, rho}."""
    d = xs.shape[-1]
    eye = np.broadcast_to(np.eye(d, dtype=complex), xs.shape)
    return _kron_batch(eye, xs) + _kron_batch(np.transpose(xs, (0, 2, 1)), eye)
