"""Momentum-space route to exact probabilities and limiting distributions.

A translation-invariant walk on the d-cycle block-diagonalizes under
the discrete Fourier transform of the position register into d unitary
4x4 blocks, one per momentum k.  Each walk is described once, by its
one-step rule out[n] = A+ a[n+1] + A- a[n-1] in the kernels module;
the block is M_k = x A+ + conj(x) A- with x = e^{2 pi i k/d}, with
(A+, A-) read off that rule.  build_Mk gives the recycled-coin block at
angle theta, build_Nk the memory-walk block.  With a walker starting
localized at position 0 with coin vector psi, and writing lam_j(k),
phi_j(k) for the block eigensystems and alpha_j(k) = <phi_j(k)|psi>,
the state at step t has momentum amplitudes
sum_j lam_j(k)^t alpha_j(k) phi_j(k), one 4-vector per block.  One
inverse FFT over k takes them to the sites, and p(n, t) is the squared
norm of the coin vector at site n.

Time-averaging kills every pair of eigenvectors whose eigenvalues
differ and keeps the rest (the Cesaro limit of Aharonov, Ambainis,
Kempe and Vazirani), so the limiting distribution is a sum over
clusters C of equal eigenvalues of squared norms, with x as above,
p(n) = (1/d^2) sum_C || sum_{(k,j) in C} alpha_j(k) phi_j(k) x^n ||^2.
A lone eigenvalue adds the constant |alpha|^2 / d^2; a cluster of two
or more takes one inverse FFT over k of its scattered amplitudes.
Equality is decided by clustering the 4d eigenvalue phases with an
absolute tolerance; gaps near the tolerance are reported via
DegenerateClusterWarning because the pair selection is then ambiguous.
The test suite holds this against a full double loop over all pairs.

A SpectralCache holds what depends only on the walk, the cycle and the
tolerance: the block eigensystems and the clustering of their phases.
The start state enters only through alpha, so one cache serves every
state and every time step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .walk import (CoinConfig, Distribution, InitialState, MODEL_MEMORY,
                   MODEL_RECYCLED, _as_coin4, _walk_spec, _WalkSpec)

#: Two eigenvalues are treated as equal when their phases differ by
#: less than this (radians, after unwrapping across the branch cut).
PHASE_TOL = 1e-9

_UNITARITY_TOL = 1e-10


class DegenerateClusterWarning(UserWarning):
    """Eigenvalue phase gaps near the matching tolerance."""


def _check_k(k: int, d: int):
    if d < 2:
        raise ValueError("cycle length d must be >= 2, got %d" % d)
    if not 0 <= k < d:
        raise ValueError("momentum index k=%d outside 0..%d" % (k, d - 1))


@dataclass(frozen=True)
class FourierBlock:
    """4x4 momentum block of a walk; theta is None for the memory walk."""

    k: int
    d: int
    theta: float | None
    matrix: np.ndarray = field(repr=False)


def _block_stack(spec: _WalkSpec, d: int) -> np.ndarray:
    return _kernels._fourier_blocks(d, spec.step, *spec.coin)


def _build_block(spec: _WalkSpec, k: int, d: int) -> FourierBlock:
    _check_k(k, d)
    return FourierBlock(k=k, d=d, theta=spec.theta,
                        matrix=_block_stack(spec, d)[k])


def build_Mk(k: int, d: int, cfg: CoinConfig) -> FourierBlock:
    """Recycled-coin block at momentum k with second-coin angle from cfg."""
    return _build_block(_walk_spec(MODEL_RECYCLED, cfg), k, d)


def build_Nk(k: int, d: int) -> FourierBlock:
    """Memory-walk block at momentum k."""
    return _build_block(_walk_spec(MODEL_MEMORY), k, d)


# ---------------------------------------------------------------------------
# Eigensystems

def _phase_clusters(phases: np.ndarray, tol: float):
    """Label the phases that agree within tol, along the last axis.

    Phases live on (-pi, pi]: sort, split where a gap exceeds tol, and
    give the last cluster the first one's label when the two meet
    across the branch cut.  Returns (labels, gaps): labels[..., i] names
    the cluster of phases[..., i]; gaps holds the gaps between sorted
    neighbours, then the gap across the cut.
    """
    order = np.argsort(phases, axis=-1, kind="stable")
    sp = np.take_along_axis(phases, order, axis=-1)
    wrap = 2.0 * np.pi - (sp[..., -1:] - sp[..., :1])
    gaps = np.concatenate([np.diff(sp, axis=-1), wrap], axis=-1)
    split = gaps > tol
    sorted_labels = np.cumsum(split, axis=-1) - split
    last = sorted_labels[..., -1:]
    sorted_labels[(wrap <= tol) & (sorted_labels == last)] = 0
    labels = np.empty_like(sorted_labels)
    np.put_along_axis(labels, order, sorted_labels, axis=-1)
    return labels, gaps


def _warn_ambiguous(gaps, tol, context, stacklevel=3):
    # Gaps within a decade of tol make the equal/not-equal call unreliable.
    near = gaps[(gaps >= 0.1 * tol) & (gaps <= 10.0 * tol)]
    if near.size:
        warnings.warn(
            "%s: %d eigenvalue phase gap(s) within a decade of the matching "
            "tolerance %g (smallest %.3g); equal-eigenvalue pairing may be "
            "ambiguous" % (context, near.size, tol, near.min()),
            DegenerateClusterWarning, stacklevel=stacklevel)


def _unitarity_deviation(mats: np.ndarray) -> np.ndarray:
    """Largest entry of |U^dag U - 1| per 4x4 block of a stack."""
    utu = np.einsum("...ji,...jl->...il", mats.conj(), mats)
    utu -= np.eye(4)
    return np.abs(utu).max(axis=(-2, -1))


def _diagonalize(mats: np.ndarray, tol: float, ks):
    """Eigenvalues (n, 4) and orthonormal eigenvectors (n, 4, 4) of a stack.

    vecs[b][:, j] belongs to lams[b, j]; ks labels the blocks in
    warnings.  eig does not orthogonalize within degenerate subspaces,
    and returns nearly parallel vectors for phases just apart, while
    the projections alpha_j phi_j assume <phi_j|phi_l> = delta_jl
    inside a block.  So every block whose eigenvectors are not
    orthonormal gets a QR basis, in one batched call.  Raises
    RuntimeError when an eigenvalue leaves the unit circle.
    """
    lams, vecs = np.linalg.eig(mats)
    skew = _unitarity_deviation(vecs) > _UNITARITY_TOL
    if skew.any():
        vecs[skew] = np.linalg.qr(vecs[skew])[0]
    gaps = _phase_clusters(np.angle(lams), tol)[1]
    for b in np.flatnonzero((gaps <= 10.0 * tol).any(axis=-1)):
        # Skip _diagonalize and its caller: the warning points at the
        # line that called eigensystem, or at the function that asked
        # for the cache.
        _warn_ambiguous(gaps[b], tol, "block k=%d" % ks[b], stacklevel=4)
    moddev = np.abs(np.abs(lams) - 1.0).max()
    if moddev > _UNITARITY_TOL:
        raise RuntimeError("eigenvalue left the unit circle by %.3g" % moddev)
    return lams, vecs


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and orthonormal eigenvectors of one momentum block.

    eigenvectors[:, j] belongs to eigenvalues[j].  theta is None for
    memory-walk blocks.
    """

    k: int
    d: int
    theta: float | None
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


def eigensystem(block, tol: float = PHASE_TOL) -> EigenSystem:
    """Diagonalize one 4x4 unitary block.

    Accepts a FourierBlock or a plain unitary (4, 4) array.  Degenerate
    eigenvector groups come back orthonormal.
    """
    if isinstance(block, FourierBlock):
        k, d, theta, mat = block.k, block.d, block.theta, block.matrix
    else:
        mat = np.asarray(block, dtype=np.complex128)
        if mat.shape != (4, 4):
            raise ValueError("expected a (4, 4) block, got %s" % (mat.shape,))
        k, d, theta = 0, 0, None
    dev = _unitarity_deviation(mat)
    if dev > _UNITARITY_TOL:
        raise ValueError("block is not unitary (deviation %.3g)" % dev)
    lams, vecs = _diagonalize(mat[None], tol, (k,))
    return EigenSystem(k=k, d=d, theta=theta,
                       eigenvalues=lams[0], eigenvectors=vecs[0])


@dataclass(frozen=True)
class SpectralCache:
    """Spectrum of one walk on one d-cycle, clustered at one tolerance.

    eigenvalues has shape (d, 4); eigenvectors (d, 4, 4) with vectors
    in columns.  labels and gaps are the equal-phase clustering of the
    4d eigenphases at tol, flattened as K = 4k + j (see
    _phase_clusters).  theta is None for the memory walk.  The cache
    holds no start state: every consumer takes one.
    """

    d: int
    theta: float | None
    tol: float
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    gaps: np.ndarray = field(repr=False)


def _coin4_or_initial(psi) -> np.ndarray:
    # The Fourier route hard-codes the start at position 0; the phase
    # bookkeeping below is only valid there.
    if isinstance(psi, InitialState):
        if psi.position != 0:
            raise ValueError("spectral route requires the walk to start at "
                             "position 0, got position %d" % psi.position)
        return np.asarray(psi.coin4)
    return _as_coin4(psi)


def _alphas(cache: SpectralCache, psi) -> np.ndarray:
    """Overlaps alphas[k, j] = <phi_j(k)|psi> of a position-0 start."""
    return np.einsum("kij,i->kj", cache.eigenvectors.conj(),
                     _coin4_or_initial(psi))


def _spectral_cache(spec: _WalkSpec, d: int, tol: float) -> SpectralCache:
    if d < 2:
        raise ValueError("cycle length d must be >= 2, got %d" % d)
    mats = _block_stack(spec, d)
    dev = _unitarity_deviation(mats).max()
    if dev > _UNITARITY_TOL:
        raise RuntimeError("momentum block lost unitarity (%.3g)" % dev)
    lams, vecs = _diagonalize(mats, tol, range(d))
    labels, gaps = _phase_clusters(np.angle(lams.reshape(-1)), tol)
    return SpectralCache(d=d, theta=spec.theta, tol=tol, eigenvalues=lams,
                         eigenvectors=vecs, labels=labels, gaps=gaps)


def spectral_cache(d: int, cfg: CoinConfig, *,
                   tol: float = PHASE_TOL) -> SpectralCache:
    """Diagonalize all recycled-coin blocks for one (d, phi) cell."""
    return _spectral_cache(_walk_spec(MODEL_RECYCLED, cfg), d, tol)


def spectral_cache_memory(d: int, *, tol: float = PHASE_TOL) -> SpectralCache:
    """Memory-walk analogue of spectral_cache."""
    return _spectral_cache(_walk_spec(MODEL_MEMORY), d, tol)


def _cache_matches(cache: SpectralCache, d: int, theta: float | None):
    if cache.d != d:
        raise ValueError("cache built for d=%d, asked for d=%d" % (cache.d, d))
    if (cache.theta is None) != (theta is None) or (
            theta is not None and abs(cache.theta - theta) > 1e-15):
        raise ValueError("cache built for a different coin angle")


def closed_form_distribution(t: int, cfg: CoinConfig, psi, d: int | None = None,
                             cache: SpectralCache | None = None) -> Distribution:
    """Exact position distribution at step t from the block eigensystems.

    Each block's momentum amplitude is V_k diag(lam_k^t) alpha_k; one
    inverse FFT over k gives the site amplitudes.  Pass d, or a cache
    from spectral_cache to amortize diagonalization over many t and
    states.  The start must be localized at position 0.
    """
    if t < 0:
        raise ValueError("time step must be >= 0, got %d" % t)
    if cache is None:
        if d is None:
            raise ValueError("need either d or a SpectralCache")
        cache = spectral_cache(d, cfg)
    else:
        _cache_matches(cache, cache.d if d is None else d, cfg.theta)
    amps = np.einsum("kij,kj->ki", cache.eigenvectors,
                     cache.eigenvalues ** t * _alphas(cache, psi))
    sites = np.fft.ifft(amps, axis=0)
    return Distribution(d=cache.d, probs=np.sum(np.abs(sites) ** 2, axis=1))


def closed_form_probability(n: int, t: int, cfg: CoinConfig, psi,
                            d: int | None = None,
                            cache: SpectralCache | None = None) -> float:
    """p(n, t) from the block eigensystems; see closed_form_distribution."""
    dist = closed_form_distribution(t, cfg, psi, d=d, cache=cache)
    if not 0 <= n < dist.d:
        raise ValueError("position %d outside cycle of length %d" % (n, dist.d))
    return float(dist.probs[n])


def _limiting_probs(cache: SpectralCache, psi) -> np.ndarray:
    d, labels = cache.d, cache.labels
    alphas = _alphas(cache, psi).reshape(-1)
    _warn_ambiguous(cache.gaps, cache.tol, "d=%d limiting distribution" % d)
    shared = np.bincount(labels)[labels] > 1
    # A lone eigenvalue adds the constant |alpha|^2 / d^2.
    probs = np.full(d, np.sum(np.abs(alphas[~shared]) ** 2) / d ** 2)
    # Flat index K = 4k + j is eigenvector j of block k; the members of
    # each shared cluster are numbered cid = 0, 1, ... in turn.
    members = np.flatnonzero(shared)
    members = members[np.argsort(labels[members], kind="stable")]
    clusters, cid = np.unique(labels[members], return_inverse=True)
    k, j = divmod(members, 4)
    amps = cache.eigenvectors[k, :, j] * alphas[members, None]
    per = max(1, _kernels._SCAN_CHUNK_AMPS // (4 * d))
    for lo in range(0, clusters.size, per):
        a, b = np.searchsorted(cid, (lo, lo + per))
        # Column c sums a cluster's alpha phi over its blocks k; one
        # inverse FFT over k gives p_C(n) = |ifft|^2 summed over coins.
        buf = np.zeros((d, min(per, clusters.size - lo), 4),
                       dtype=np.complex128)
        np.add.at(buf, (k[a:b], cid[a:b] - lo), amps[a:b])
        np.fft.ifft(buf, axis=0, out=buf)
        probs += _kernels._probs(buf, "n")
    return probs


def _limiting(spec: _WalkSpec, d: int, psi, cache: SpectralCache | None,
              tol: float) -> Distribution:
    if cache is None:
        cache = _spectral_cache(spec, d, tol)
    else:
        _cache_matches(cache, d, spec.theta)
        if cache.tol != tol:
            raise ValueError("cache clustered at tol=%g, asked for tol=%g"
                             % (cache.tol, tol))
    return Distribution(d=d, probs=_limiting_probs(cache, psi))


def limiting_distribution(cfg: CoinConfig, d: int, psi,
                          cache: SpectralCache | None = None,
                          tol: float = PHASE_TOL) -> Distribution:
    """Time-averaged (Cesaro) distribution of the recycled-coin walk.

    Keeps exactly the pairs with equal eigenvalues, as decided by phase
    clustering at tol; a given cache must have been built at the same
    tol.  Start must be localized at position 0.
    """
    return _limiting(_walk_spec(MODEL_RECYCLED, cfg), d, psi, cache, tol)


def limiting_distribution_memory(d: int, psi,
                                 cache: SpectralCache | None = None,
                                 tol: float = PHASE_TOL) -> Distribution:
    """Time-averaged distribution of the memory walk."""
    return _limiting(_walk_spec(MODEL_MEMORY), d, psi, cache, tol)


# ---------------------------------------------------------------------------
# Spectrum comparisons

def eigenvalue_multiset_distance(a, b) -> float:
    """Greedy nearest-neighbor matching distance between two multisets."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = list(np.asarray(b, dtype=np.complex128).ravel())
    if len(a) != len(b):
        raise ValueError("multisets differ in size: %d vs %d"
                         % (len(a), len(b)))
    worst = 0.0
    for val in a:
        dists = [abs(val - other) for other in b]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        b.pop(i)
    return worst


def memory_spectrum_mismatch(d: int) -> float:
    """Worst per-k distance between eig(N_k) and eig(M_k(3 pi / 4)).

    The memory-walk block is unitarily equivalent to the recycled-coin
    block at phi = 2, so this should vanish to rounding error.
    """
    ms = _block_stack(_walk_spec(MODEL_RECYCLED, CoinConfig(2.0)), d)
    ns = _block_stack(_walk_spec(MODEL_MEMORY), d)
    lam_m = np.linalg.eigvals(ms)
    lam_n = np.linalg.eigvals(ns)
    return max(eigenvalue_multiset_distance(lam_n[k], lam_m[k])
               for k in range(d))
