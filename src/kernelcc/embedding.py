"""Conditional-distribution embedding fitted from trajectory data.

The fitted object supports expectation estimates of the form
g_vals @ (G + lam*M*I)^{-1} k(query), where G is the product-kernel Gram
matrix over the dataset's (x0, control sequence) pairs and k(query) is the
cross-kernel vector of the dataset against the query pair. Any function of
the sampled trajectories enters only through its values g_vals at the M
training trajectories, so no trajectory-space kernel is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import (
    FactorizationError,
    KernelSpec,
    SpdFactor,
    gram_product,
    kernel_matrix,
    resolve_bandwidth,
    spd_factor,
)
from .serialize import digest_of


class FitError(ArithmeticError):
    """Raised when the regularized Gram matrix cannot be factorized."""


@dataclass(frozen=True)
class EmbeddingModel:
    """Fitted embedding: dataset, resolved kernels, factorized linear system."""

    dataset: Dataset
    kx: KernelSpec
    ku: KernelSpec
    lam: float
    factor: SpdFactor

    @property
    def horizon(self) -> int:
        return self.dataset.horizon

    @property
    def control_dim(self) -> int:
        return self.dataset.control_dim

    @property
    def initial_states(self) -> np.ndarray:
        return self.dataset.initial_states

    @property
    def flat_controls(self) -> np.ndarray:
        return self.dataset.flattened_controls()

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
    """Fit the embedding: resolve bandwidths, build G, factorize G + lam*M*I.

    The median heuristic, when requested, runs separately over the dataset's
    initial states and its flattened control sequences.

    Raises
    ------
    FitError
        If the regularized Gram matrix is not positive definite; a larger
        regularization parameter fixes this.
    """
    if not (lam > 0):
        raise ValueError(f"regularization parameter must be positive, got {lam}")
    flat_u = ds.flattened_controls()
    kx = resolve_bandwidth(kx, ds.initial_states)
    ku = resolve_bandwidth(ku, flat_u)
    gram = gram_product(ds.initial_states, flat_u, kx, ku)
    m_count = ds.num_samples
    try:
        factor = spd_factor(gram + lam * m_count * np.eye(m_count))
    except FactorizationError as exc:
        raise FitError(
            f"regularized Gram matrix is not positive definite (pivot "
            f"{exc.pivot}); increase the regularization parameter above {lam}"
        ) from exc
    return EmbeddingModel(dataset=ds, kx=kx, ku=ku, lam=float(lam), factor=factor)


def cross_matrix(model: EmbeddingModel, x0, controls) -> np.ndarray:
    """Cross-kernel matrix of the dataset against P query control sequences.

    ``controls`` has shape (P, N, m). Column j holds the cross-kernel vector
    for the query (x0, controls[j]); shape (M, P). Solving the fitted system
    against it, ``spd_solve(model.factor, cross_matrix(...))``, gives the
    embedding weights of every query; a single query is a batch of one.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dataset.state_dim,):
        raise ValueError(
            f"x0 must have shape ({model.dataset.state_dim},), got {x0.shape}"
        )
    controls = np.asarray(controls, dtype=float)
    if controls.shape[1:] != (model.horizon, model.control_dim):
        raise ValueError(
            f"control sequences must have shape (P, {model.horizon}, "
            f"{model.control_dim}), got {controls.shape}"
        )
    kx_col = kernel_matrix(model.kx, model.initial_states, x0.reshape(1, -1))[:, 0]
    ku_block = kernel_matrix(
        model.ku, model.flat_controls, controls.reshape(controls.shape[0], -1)
    )
    return kx_col[:, None] * ku_block
