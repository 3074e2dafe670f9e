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
Writing v_i = alpha_i phi_i for the members i = (k_i, j_i) of C, the
squared norm is sum_{i,l} <v_i|v_l> e^{2 pi i (k_l - k_i) n/d}: each
pair adds one Fourier coefficient at frequency k_l - k_i mod d.  A
cluster of s members costs s^2 pair terms this way, or one length-d
inverse FFT of its scattered amplitudes, so the limit takes two
routes.  The pair route serves every cluster with s^2 <= d: a lone
eigenvalue adds |alpha|^2 at frequency 0, every other cluster its
diagonal there and each pair i < l twice the real part of its term,
and one inverse FFT of the d summed coefficients gives them all.  The
larger clusters (the flat bands, d members each) take the transform
route, one inverse FFT over k each, in batches.  Outside the flat
bands a cluster holds a handful of members (a band meets a given phase
a bounded number of times), so a limit costs O(d log d).  Equality is
decided by clustering the 4d eigenvalue phases at the one tolerance,
PHASE_TOL; gaps within a decade of it are reported via
DegenerateClusterWarning because the pair selection is then ambiguous.
The test suite holds this against a full double loop over all pairs.

A SpectralCache holds what depends only on the walk and the cycle: the
block eigensystems and the clustering of their phases.
The start state enters only through alpha, so one cache serves every
state and every time step.  The limit takes a stack of S start states:
their alphas come from one einsum, the cluster bookkeeping (sizes,
routes, members, pair indices and frequencies) is built once for all
of them, the pair route takes one inverse FFT per state along the last
axis of an (S, d) array, and each transform batch holds columns of
every state.  A sweep group is one such call; limiting_distribution
passes a stack of one.  A+ and A- are real for both walks, so
M_{d-k} = conj(M_k): only the blocks k <= d/2 are diagonalized, and
block d - k takes the conjugate eigenvalues and eigenvectors, with
exactly negated phases.  The per-block warnings are then issued for all
d blocks in ascending k.
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

def _sorted_gaps(sp: np.ndarray) -> np.ndarray:
    """Gaps between neighbours of phases sorted along the last axis.

    Phases live on (-pi, pi]; the last gap is the one across the branch
    cut, from the largest phase round to the smallest.
    """
    wrap = 2.0 * np.pi - (sp[..., -1:] - sp[..., :1])
    return np.concatenate([np.diff(sp, axis=-1), wrap], axis=-1)


def _phase_clusters(phases: np.ndarray, tol: float):
    """Label the phases that agree within tol, along the last axis.

    Sort, split where a gap (_sorted_gaps) exceeds tol, and give the
    last cluster the first one's label when the two meet across the
    branch cut.  Returns (labels, gaps): labels[..., i] names the
    cluster of phases[..., i]; gaps are the _sorted_gaps.
    """
    order = np.argsort(phases, axis=-1, kind="stable")
    gaps = _sorted_gaps(np.take_along_axis(phases, order, axis=-1))
    split = gaps > tol
    sorted_labels = np.cumsum(split, axis=-1) - split
    last = sorted_labels[..., -1:]
    sorted_labels[(gaps[..., -1:] <= tol) & (sorted_labels == last)] = 0
    labels = np.empty_like(sorted_labels)
    np.put_along_axis(labels, order, sorted_labels, axis=-1)
    return labels, gaps


def _warn_ambiguous(gaps, context, stacklevel=3):
    # Gaps within a decade of PHASE_TOL make the equality call unreliable.
    near = gaps[(gaps >= 0.1 * PHASE_TOL) & (gaps <= 10.0 * PHASE_TOL)]
    if near.size:
        warnings.warn(
            "%s: %d eigenvalue phase gap(s) within a decade of the matching "
            "tolerance %g (smallest %.3g); equal-eigenvalue pairing may be "
            "ambiguous" % (context, near.size, PHASE_TOL, near.min()),
            DegenerateClusterWarning, stacklevel=stacklevel)


def _unitarity_deviation(mats: np.ndarray) -> np.ndarray:
    """Largest entry of |U^dag U - 1| per 4x4 block of a stack."""
    utu = np.einsum("...ji,...jl->...il", mats.conj(), mats)
    utu -= np.eye(4)
    return np.abs(utu).max(axis=(-2, -1))


def _eig(mats: np.ndarray):
    """Eigenvalues (n, 4) and orthonormal eigenvectors (n, 4, 4) of a stack.

    vecs[b][:, j] belongs to lams[b, j].  eig does not orthogonalize
    within degenerate subspaces, and returns nearly parallel vectors
    for phases just apart, while the projections alpha_j phi_j assume
    <phi_j|phi_l> = delta_jl inside a block.  So every block whose
    eigenvectors are not orthonormal gets a QR basis, in one batched
    call.
    """
    lams, vecs = np.linalg.eig(mats)
    skew = _unitarity_deviation(vecs) > _UNITARITY_TOL
    if skew.any():
        vecs[skew] = np.linalg.qr(vecs[skew])[0]
    return lams, vecs


def _screen_blocks(lams: np.ndarray, ks, stacklevel: int):
    """Warn of each block's phase gaps near PHASE_TOL; check |lam| = 1.

    Blocks warn in order, labelled by ks; stacklevel counts the
    frames from _warn_ambiguous up to the line they point at.  Raises
    RuntimeError when an eigenvalue leaves the unit circle.
    """
    gaps = _sorted_gaps(np.sort(np.angle(lams), axis=-1))
    for b in np.flatnonzero((gaps <= 10.0 * PHASE_TOL).any(axis=-1)):
        _warn_ambiguous(gaps[b], "block k=%d" % ks[b], stacklevel)
    moddev = np.abs(np.abs(lams) - 1.0).max()
    if moddev > _UNITARITY_TOL:
        raise RuntimeError("eigenvalue left the unit circle by %.3g" % moddev)


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


def eigensystem(block) -> EigenSystem:
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
    lams, vecs = _eig(mat[None])
    # The warnings point at the line that called eigensystem.
    _screen_blocks(lams, (k,), stacklevel=4)
    return EigenSystem(k=k, d=d, theta=theta,
                       eigenvalues=lams[0], eigenvectors=vecs[0])


@dataclass(frozen=True)
class SpectralCache:
    """Spectrum of one walk on one d-cycle, with its phases clustered.

    eigenvalues has shape (d, 4); eigenvectors (d, 4, 4) with vectors
    in columns.  The blocks k > d/2 hold the complex conjugates of the
    eigensystems of blocks d - k (module docstring).  labels and gaps
    are the equal-phase clustering of the 4d eigenphases at PHASE_TOL,
    flattened as K = 4k + j (see _phase_clusters); the limit sums
    clusters of s members with s^2 <= d as pairs and transforms the
    larger ones.  theta is None for the memory walk.  The cache holds no
    start state: every consumer takes one, and the limit a stack of
    them, so a sweep group's states share one cache and one batch.
    """

    d: int
    theta: float | None
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


def _alphas(cache: SpectralCache, psis: np.ndarray) -> np.ndarray:
    """Overlaps alphas[..., k, j] = <phi_j(k)|psi> of position-0 starts.

    psis is one coin 4-vector or a stack (S, 4) of them.
    """
    return np.einsum("kij,...i->...kj", cache.eigenvectors.conj(), psis)


def _spectral_cache(spec: _WalkSpec, d: int) -> SpectralCache:
    if d < 2:
        raise ValueError("cycle length d must be >= 2, got %d" % d)
    # Blocks k <= d/2 are diagonalized; each block k > d/2 is the
    # conjugate of block d - k, and so is its eigensystem.
    mats = _kernels._fourier_blocks(d, spec.step, *spec.coin,
                                    stop=d // 2 + 1)
    dev = _unitarity_deviation(mats).max()
    if dev > _UNITARITY_TOL:
        raise RuntimeError("momentum block lost unitarity (%.3g)" % dev)
    lams, vecs = (_kernels._mirrored(x, d) for x in _eig(mats))
    # The warnings point at the function that asked for the cache.
    _screen_blocks(lams, range(d), stacklevel=4)
    labels, gaps = _phase_clusters(np.angle(lams.reshape(-1)), PHASE_TOL)
    return SpectralCache(d=d, theta=spec.theta, eigenvalues=lams,
                         eigenvectors=vecs, labels=labels, gaps=gaps)


def spectral_cache(d: int, cfg: CoinConfig) -> SpectralCache:
    """Diagonalize all recycled-coin blocks for one (d, phi) cell."""
    return _spectral_cache(_walk_spec(MODEL_RECYCLED, cfg), d)


def spectral_cache_memory(d: int) -> SpectralCache:
    """Memory-walk analogue of spectral_cache."""
    return _spectral_cache(_walk_spec(MODEL_MEMORY), d)


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
    # lam^t as e^{i t arg(lam)}: a power of |lam| = 1 + O(ulp) would
    # drift off the unit circle linearly in t.
    phases = np.exp(1j * t * np.angle(cache.eigenvalues))
    amps = np.einsum("kij,kj->ki", cache.eigenvectors,
                     phases * _alphas(cache, _coin4_or_initial(psi)))
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


def _limiting_probs(cache: SpectralCache, psis: np.ndarray) -> np.ndarray:
    """Limiting distributions (S, d) of the position-0 starts psis (S, 4).

    The cluster bookkeeping depends only on the cache, so it is built
    once and serves every state of the stack.
    """
    d, labels = cache.d, cache.labels
    ns = len(psis)
    alphas = _alphas(cache, psis).reshape(ns, -1)
    _warn_ambiguous(cache.gaps, "d=%d limiting distribution" % d)
    counts = np.bincount(labels)
    # A cluster of s takes s^2 pair terms on the pair route, or one
    # length-d transform: the larger ones take the transform.
    wide = counts * counts > d
    big = wide[labels]
    # Flat index K = 4k + j is eigenvector j of block k.  Only members
    # of clusters of two or more need amplitudes v = alpha phi.  Sorted
    # by route, then by cluster, the pair route's members come first and
    # each cluster's members sit side by side.
    members = np.flatnonzero(counts[labels] > 1)
    key = labels[members] + big[members] * labels.size
    order = np.argsort(key, kind="stable")
    members, key = members[order], key[order]
    split = np.searchsorted(key, labels.size)
    k, j = divmod(members, 4)
    amps = cache.eigenvectors[k, :, j] * alphas[:, members, None]

    # Pair route: each eigenvalue outside the big clusters adds |alpha|^2
    # at frequency 0, each pair a < b of a small cluster 2 <v_a|v_b> at
    # frequency k_b - k_a; one inverse FFT per state sums them all.  The
    # member at a has later[a] partners after it, up to the end of its
    # cluster: its pairs are numbered on from cumsum(later)[a] - later[a],
    # and the first takes b = a + 1.
    sk, sv, sl = k[:split], amps[:, :split], key[:split]
    end = np.searchsorted(sl, sl, side="right")
    later = end - 1 - np.arange(split)
    a = np.repeat(np.arange(split), later)
    b = np.arange(a.size) + (end - np.cumsum(later))[a]
    w = 2.0 * np.einsum("spc,spc->sp", sv[:, a].conj(), sv[:, b])
    f = (sk[b] - sk[a]) % d
    z = np.zeros((ns, d), dtype=np.complex128)
    np.add.at(z, (slice(None), f), w)
    # einsum, not vdot: OpenBLAS's threaded dot costs milliseconds on
    # rows of 16,384 and more.
    rest = np.ascontiguousarray(alphas[:, ~big]).view(np.float64)
    z[:, 0] += np.einsum("sm,sm->s", rest, rest)
    probs = np.fft.ifft(z, axis=-1).real / d

    # Transform route: the big clusters are numbered cid = 0, 1, ... in
    # turn.  A batch holds at most `per` columns, one per (state,
    # cluster): nst states of ncl clusters.
    k, amps = k[split:], amps[:, split:]
    cid = np.cumsum(wide)[labels[members[split:]]] - 1
    nbig = np.count_nonzero(wide)
    per = max(1, _kernels._SCAN_CHUNK_AMPS // (4 * d))
    nst = min(ns, per)
    ncl = per // nst
    for lo in range(0, nbig, ncl):
        a, b = np.searchsorted(cid, (lo, lo + ncl))
        for s in range(0, ns, nst):
            # Column (s, c) sums cluster c's alpha phi for state s over
            # its blocks k; one inverse FFT over k gives p_C(n) =
            # |ifft|^2 summed over coins.
            cols = amps[s:s + nst, a:b].swapaxes(0, 1)
            buf = np.zeros((d, cols.shape[1], min(ncl, nbig - lo), 4),
                           dtype=np.complex128)
            np.add.at(buf, (k[a:b], slice(None), cid[a:b] - lo), cols)
            np.fft.ifft(buf, axis=0, out=buf)
            parts = buf.view(np.float64)
            probs[s:s + nst] += np.einsum("nscj,nscj->sn", parts, parts)
    return probs


def _limiting(spec: _WalkSpec, d: int, psi,
              cache: SpectralCache | None) -> Distribution:
    if cache is None:
        cache = _spectral_cache(spec, d)
    else:
        _cache_matches(cache, d, spec.theta)
    psis = _coin4_or_initial(psi)[None]
    return Distribution(d=d, probs=_limiting_probs(cache, psis)[0])


def limiting_distribution(cfg: CoinConfig, d: int, psi,
                          cache: SpectralCache | None = None) -> Distribution:
    """Time-averaged (Cesaro) distribution of the recycled-coin walk.

    Keeps exactly the pairs with equal eigenvalues, as decided by phase
    clustering at PHASE_TOL.  Start must be localized at position 0.
    """
    return _limiting(_walk_spec(MODEL_RECYCLED, cfg), d, psi, cache)


def limiting_distribution_memory(d: int, psi,
                                 cache: SpectralCache | None = None
                                 ) -> Distribution:
    """Time-averaged distribution of the memory walk."""
    return _limiting(_walk_spec(MODEL_MEMORY), d, psi, cache)


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
