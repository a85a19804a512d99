"""Conditional-distribution embedding fitted from trajectory data.

The fitted object supports expectation estimates of the form
g_vals @ (G + lam*M*I)^{-1} k(query), where G is the product-kernel Gram
matrix over the dataset's (x0, control sequence) pairs and k(query) is the
cross-kernel vector of the dataset against the query pair. Any function of
the sampled trajectories enters only through its values g_vals at the M
training trajectories, so no trajectory-space kernel is ever materialized.

In representer form the estimate is the inner product alpha @ k(query) with
alpha = (G + lam*M*I)^{-1} g_vals: one solve against the fitted factor per
function, after which every query costs one cross-kernel vector and a dot
product. ``fit`` builds one triangle of G + lam*M*I in rectangular full
packed form and factorizes it in that buffer, so the fit holds M(M+1)/2
entries and no M x M matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import (
    FactorizationError,
    KernelSpec,
    ProductFeatures,
    SpdFactor,
    gram_product,
    spd_factor,
)
from .serialize import digest_of


class FitError(ArithmeticError):
    """Raised when the regularized Gram matrix cannot be factorized."""


@dataclass(frozen=True)
class EmbeddingModel:
    """Fitted embedding: dataset, kernels, factorized linear system, and the
    dataset's kernel features, which every cross-kernel block reuses."""

    dataset: Dataset
    kx: KernelSpec
    ku: KernelSpec
    lam: float
    factor: SpdFactor
    features: ProductFeatures

    @property
    def digest(self) -> str:
        """Digest identifying the fit: dataset, kernels, regularization."""
        return digest_of(
            {
                "dataset_digest": self.dataset.config_digest,
                "dataset_seed": self.dataset.master_seed,
                "kx": self.kx,
                "ku": self.ku,
                "lam": self.lam,
            }
        )


def fit(ds: Dataset, kx: KernelSpec, ku: KernelSpec, lam: float) -> EmbeddingModel:
    """Fit the embedding: build G, factorize G + lam*M*I, and keep the
    dataset's kernel features for the cross-kernel matrices.

    Raises
    ------
    ValueError
        If the regularization parameter is not positive and finite.
    FitError
        If lam*M overflows, or if the regularized Gram matrix is not positive
        definite; a larger regularization parameter fixes the latter.
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError(
            f"regularization parameter must be positive and finite, got {lam}"
        )
    m_count = ds.num_samples
    ridge = float(lam) * m_count
    if not math.isfinite(ridge):
        raise FitError(
            f"regularization parameter {lam} times {m_count} samples overflows"
        )
    features = ProductFeatures.build(
        ds.initial_states, ds.flattened_controls(), kx, ku
    )
    # G + lam*M*I, factored in place: G is not needed on its own
    packed = gram_product(features, ridge=ridge)
    try:
        factor = spd_factor(packed)
    except FactorizationError as exc:
        raise FitError(
            f"regularized Gram matrix is not positive definite (pivot "
            f"{exc.pivot}); increase the regularization parameter above {lam}"
        ) from exc
    return EmbeddingModel(
        dataset=ds, kx=kx, ku=ku, lam=float(lam), factor=factor, features=features
    )


def cross_matrix(model: EmbeddingModel, x0, controls) -> np.ndarray:
    """Cross-kernel matrix of the dataset against P query control sequences.

    ``controls`` has shape (P, N, m). Column j holds the cross-kernel vector
    for the query (x0, controls[j]); shape (M, P). With
    ``alpha = spd_solve(model.factor, g_vals)`` the estimates of a function
    at every query are ``alpha @ cross_matrix(...)``; a single query is a
    batch of one. Columns are independent, so a caller with many queries
    (``solver.assemble``) passes them a block at a time and holds one
    M x block matrix instead of M x P. Every block reuses the features the
    fit built, and its squared distances are one BLAS product; an entry
    may differ between blocks in its last bits.
    """
    ds = model.dataset
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (ds.state_dim,):
        raise ValueError(f"x0 must have shape ({ds.state_dim},), got {x0.shape}")
    controls = np.asarray(controls, dtype=float)
    if controls.shape[1:] != (ds.horizon, ds.control_dim):
        raise ValueError(
            f"control sequences must have shape (P, {ds.horizon}, "
            f"{ds.control_dim}), got {controls.shape}"
        )
    p = controls.shape[0]
    return model.features.cross_kernel(
        np.broadcast_to(x0, (p, ds.state_dim)), controls.reshape(p, -1)
    )
