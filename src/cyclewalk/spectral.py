"""Momentum-space route to exact probabilities and limiting distributions.

A translation-invariant walk on the d-cycle block-diagonalizes under
the discrete Fourier transform of the position register into d unitary
4x4 blocks, one per momentum k.  Each walk is its pair of shift
blocks (A+, A-), one step being out[n] = A+ a[n+1] + A- a[n-1] (the
walk module's specs); the kernels module builds the block
M_k = x A+ + conj(x) A- with x = e^{2 pi i k/d}.  build_Mk gives the
recycled-coin block at angle theta, build_Nk the memory-walk block.  With a walker starting
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

The eigensystems take one of two routes, by a fixed rule on the number
of blocks in the stack (_POLY_MIN_BLOCKS, the measured break-even, 32
blocks or d >= 62 for a cache).  Smaller stacks go to LAPACK's eig,
with a QR basis for blocks whose eigenvectors are not orthonormal.
Larger ones are read off each block's characteristic polynomial
(_charpoly, by Faddeev-LeVerrier from tr M^1..tr M^4): the four roots
come from a fixed number of Aberth steps over the whole stack, and each
eigenvector from the Krylov vectors of a fixed start vector r, as
q_j(M) r with q_j the polynomial deflated by its root j; the eigenvalue
is then its Rayleigh quotient.  Every block is checked: its
eigen-equation residual and its orthonormality defect must be at most
_POLY_EIG_TOL.  The blocks that fail (a repeated or nearly repeated
root, a root that did not converge, r nearly orthogonal to an
eigenvector) go through the LAPACK route in one batched call.
eigensystem and memory_spectrum_mismatch always use LAPACK, so they
stay independent witnesses of the polynomial route.

Caches are built a pack at a time (_spectral_caches).  A pack is a
list of (walk, d) groups whose blocks k <= d/2 form one stack: one
unitarity screen, one diagonalization and one screen of the block
phase gaps serve the whole stack, and each group then finishes its own
cache (mirroring, its warnings, the unit-circle check, the clustering)
and fails alone.  A sweep diagonalizes one pack per run of consecutive
d of a phi column, up to _POLY_CHUNK blocks (_packs), so one C07
column, d = 2..50, is a single stack of 674 blocks on the polynomial
route, although each of its caches alone would take LAPACK.  A single
cache is the one-group pack, so its route and its bits do not depend
on the packs.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from dataclasses import dataclass, field
from functools import partial

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
    return _kernels._fourier_blocks(d, spec)


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


def _warn_ambiguous(gaps, context):
    # Gaps within a decade of PHASE_TOL make the equality call unreliable.
    near = gaps[(gaps >= 0.1 * PHASE_TOL) & (gaps <= 10.0 * PHASE_TOL)]
    if near.size:
        # The warning points at the first line outside this module, the
        # call into it (skip_file_prefixes needs Python 3.12).
        frame, level = sys._getframe(), 1
        while frame.f_code.co_filename == __file__ and frame.f_back:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "%s: %d eigenvalue phase gap(s) within a decade of the matching "
            "tolerance %g (smallest %.3g); equal-eigenvalue pairing may be "
            "ambiguous" % (context, near.size, PHASE_TOL, near.min()),
            DegenerateClusterWarning, stacklevel=level)


def _unitarity_deviation(mats: np.ndarray) -> np.ndarray:
    """Largest entry of |U^dag U - 1| per 4x4 block of a stack."""
    utu = np.matmul(mats.conj().swapaxes(-1, -2), mats)
    utu -= np.eye(4)
    return np.abs(utu).max(axis=(-2, -1))


def _lapack_eig(mats: np.ndarray):
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


def _matmul_t(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 4x4 matrices held block-last, shape (4, 4, n).

    numpy's matmul loops over small stacked matrices one at a time;
    block-last, each term is one broadcast product over all n blocks.
    """
    out = a[:, :1] * b[0]
    for j in range(1, 4):
        out += a[:, j:j + 1] * b[j]
    return out


def _charpoly(mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a stack (..., 4, 4) of blocks.

    Returns c (..., 5) with det(z - M) = z^4 + c1 z^3 + c2 z^2 + c3 z
    + c4 and c0 = 1, each row as np.poly gives it for its block.  By
    Faddeev-LeVerrier, from the power traces p_k = tr M^k through
    Newton's identities k c_k = -(p_k + c1 p_{k-1} + ... + c_{k-1} p1).
    """
    mt = np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1)))
    m2 = _matmul_t(mt, mt)
    p = (np.einsum("ii...->...", mt), np.einsum("ii...->...", m2),
         np.einsum("ij...,ji...->...", m2, mt),
         np.einsum("ij...,ji...->...", m2, m2))
    c = [np.ones_like(p[0])]
    for k in range(1, 5):
        c.append(-sum(c[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    return np.stack(c, axis=-1)


# Column q of _PAIRS is the pair a < b of roots, +1 at a and -1 at b:
# _PAIRS.T @ z holds z_a - z_b, and _PAIRS @ (1 / that) holds
# sum_{b != a} 1 / (z_a - z_b) for every root a.
_PAIRS = np.array([[1, 1, 1, 0, 0, 0], [-1, 0, 0, 1, 1, 0],
                   [0, -1, 0, -1, 0, 1], [0, 0, -1, 0, -1, -1]],
                  dtype=np.complex128)
# Aberth steps per quartic.  From the start in _quartic_roots, simple
# roots on the unit circle settle within five steps (measured over phi
# on a 0.3 grid and the memory walk, d = 200 to 10^4); repeated roots
# converge only linearly, and their blocks fail the checks in _poly_eig.
_ABERTH_STEPS = 6


def _aberth_step(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One Aberth-Ehrlich step on the roots z (4, n) of quartics c (5, n)."""
    p = (((z + c[1]) * z + c[2]) * z + c[3]) * z + c[4]
    w = p / (((4 * z + 3 * c[1]) * z + 2 * c[2]) * z + c[3])
    return z - w / (1 - w * (_PAIRS @ (1 / (_PAIRS.T @ z))))


def _quartic_roots(c: np.ndarray) -> np.ndarray:
    """Roots (4, n) of the monic quartics c (5, n), rows c0..c4.

    The iteration starts from the roots of z^4 + c4, the quartic
    without its middle terms: four points a quarter turn apart with
    the roots' product.
    """
    z = (-c[4]) ** 0.25 * np.array([1, 1j, -1, -1j])[:, None]
    for _ in range(_ABERTH_STEPS):
        z = _aberth_step(c, z)
    return z


# Krylov start vector: fixed, with entries of unequal size and unrelated
# phases (drawn once from a normal distribution), so that no symmetry of
# a walk makes it orthogonal to an eigenvector.
_KRYLOV_START = np.array([0.07 - 0.29j, -0.07 + 0.19j, 0.34 + 0.70j,
                          0.06 + 0.51j])
_KRYLOV_START /= np.linalg.norm(_KRYLOV_START)
# Largest eigen-equation residual and orthonormality defect per block
# that the polynomial route keeps; LAPACK's are about 1e-15.
_POLY_EIG_TOL = 5e-14


def _poly_eig(mats: np.ndarray):
    """Eigensystems of unitary blocks from their characteristic polynomials.

    Returns lams (n, 4), vecs (n, 4, 4) as _lapack_eig does, and ok (n,)
    marking the blocks that pass the checks.  With r a fixed start
    vector and q_j(z) = p(z) / (z - lam_j) = z^3 + a1 z^2 + a2 z + a3
    (synthetic division), v_j = q_j(M) r = M^3 r + a1 M^2 r + a2 M r
    + a3 r is the eigenvector of lam_j, normalized; lam_j is then its
    Rayleigh quotient.  A block fails when a root is repeated (both
    q_j(M) r are then one vector), when a root did not converge, or
    when r is nearly orthogonal to an eigenvector; NaN fails too.
    """
    n = len(mats)
    # Each (4, 4, n) temporary is dropped once used: a sweep's pack
    # passes up to _POLY_CHUNK blocks at once.
    c = np.ascontiguousarray(_charpoly(mats).T)
    mt = np.ascontiguousarray(mats.transpose(1, 2, 0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = _quartic_roots(c)
        krylov = [np.broadcast_to(_KRYLOV_START[:, None], (4, n))]
        for _ in range(3):
            krylov.append((mt * krylov[-1]).sum(axis=1))
        a1 = c[1] + lam
        a2 = c[2] + lam * a1
        a3 = c[3] + lam * a2
        vecs = krylov[3][:, None] + a1 * krylov[2][:, None]
        vecs += a2 * krylov[1][:, None]
        vecs += a3 * krylov[0][:, None]
        del c, krylov, a1, a2, a3
        vecs /= np.sqrt((vecs.real ** 2 + vecs.imag ** 2).sum(axis=0))
        mv = _matmul_t(mt, vecs)
        del mt
        lam = np.einsum("ij...,ij...->j...", vecs.conj(), mv)
        mv -= vecs * lam
        ok = np.abs(mv).max(axis=(0, 1)) <= _POLY_EIG_TOL
        del mv
        gram = _matmul_t(vecs.conj().swapaxes(0, 1), vecs)
        gram -= np.eye(4)[..., None]
        ok &= np.abs(gram).max(axis=(0, 1)) <= _POLY_EIG_TOL
    return lam.T, vecs.transpose(2, 0, 1), ok


# Stacks of at least this many blocks take the polynomial route.  Below
# it LAPACK's fixed costs are smaller (measured with numpy on 2 vCPUs).
_POLY_MIN_BLOCKS = 32
# Blocks per pass of the polynomial route: bounds its temporaries.
_POLY_CHUNK = 1024


def _eig(mats: np.ndarray):
    """Eigenvalues (n, 4) and orthonormal eigenvectors (n, 4, 4) of a stack.

    vecs[b][:, j] belongs to lams[b, j].  Stacks of _POLY_MIN_BLOCKS
    blocks or more take _poly_eig, in passes of at most _POLY_CHUNK
    blocks, and the blocks it rejects go through _lapack_eig in one
    batched call; smaller stacks take _lapack_eig alone.
    """
    n = len(mats)
    if n < _POLY_MIN_BLOCKS:
        return _lapack_eig(mats)
    lams = np.empty((n, 4), dtype=np.complex128)
    vecs = np.empty((n, 4, 4), dtype=np.complex128)
    ok = np.empty(n, dtype=bool)
    edges = np.linspace(0, n, -(-n // _POLY_CHUNK) + 1).astype(int)
    for lo, hi in zip(edges[:-1], edges[1:]):
        lams[lo:hi], vecs[lo:hi], ok[lo:hi] = _poly_eig(mats[lo:hi])
    bad = np.flatnonzero(~ok)
    if bad.size:
        lams[bad], vecs[bad] = _lapack_eig(mats[bad])
    return lams, vecs


def _block_screen(lams: np.ndarray):
    """What _screen_blocks reads of each block of eigenvalues lams (n, 4).

    Returns the block's sorted phase gaps (n, 4) (_sorted_gaps), whether
    one of them is at most 10 PHASE_TOL (n,), and how far its
    eigenvalues leave the unit circle (n,).
    """
    gaps = _sorted_gaps(np.sort(np.angle(lams), axis=-1))
    near = (gaps <= 10.0 * PHASE_TOL).any(axis=-1)
    return gaps, near, np.abs(np.abs(lams) - 1.0).max(axis=-1)


def _screen_blocks(screen, ks):
    """Warn of each block's phase gaps near PHASE_TOL; check |lam| = 1.

    screen is _block_screen's output for the blocks, which warn in
    order, labelled by ks.  Raises RuntimeError when an eigenvalue
    leaves the unit circle.
    """
    gaps, near, moddev = screen
    for b in np.flatnonzero(near):
        _warn_ambiguous(gaps[b], "block k=%d" % ks[b])
    moddev = moddev.max()
    if not moddev <= _UNITARITY_TOL:
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
    if not dev <= _UNITARITY_TOL:
        raise ValueError("block is not unitary (deviation %.3g)" % dev)
    lams, vecs = _lapack_eig(mat[None])
    _screen_blocks(_block_screen(lams), (k,))
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


def _packs(ds) -> list:
    """The cycle lengths ds cut, in order, into packs of one walk's groups.

    A pack holds at most _POLY_CHUNK blocks k <= d/2, for one
    _spectral_caches call; a d with more forms a pack of its own.  The
    cut depends on ds alone.
    """
    packs, size = [], 0
    for d in ds:
        if not packs or size + d // 2 + 1 > _POLY_CHUNK:
            packs.append([])
            size = 0
        packs[-1].append(d)
        size += d // 2 + 1
    return packs


def _spectral_caches(groups) -> list:
    """Caches of each group (spec, d) of groups, from one stack.

    Blocks k <= d/2 are diagonalized; each block k > d/2 is the
    conjugate of block d - k, and so is its eigensystem.  Those blocks
    of every group form one stack, which takes one unitarity screen,
    one _eig call and one _block_screen.  Returns one builder per
    group, in order: calling it finishes that group's cache
    (mirroring, the block warnings and unit-circle check of
    _screen_blocks, the clustering) or raises what fails that group
    alone.  The blocks of a group that fails the unitarity screen (NaN
    fails it) enter _eig as identities, so they cannot fail the stack.
    _spectral_cache is the one-group case.
    """
    for _, d in groups:
        if d < 2:
            raise ValueError("cycle length d must be >= 2, got %d" % d)
    stops = [d // 2 + 1 for _, d in groups]
    starts = list(itertools.accumulate(stops[:-1], initial=0))
    runs = [_kernels._half_blocks([d for _, d in run], spec)
            for spec, run in itertools.groupby(groups, key=lambda g: g[0])]
    mats = runs[0] if len(runs) == 1 else np.concatenate(runs)
    devs = np.maximum.reduceat(_unitarity_deviation(mats), starts)
    unitary = devs <= _UNITARITY_TOL
    if not unitary.all():
        mats[np.repeat(~unitary, stops)] = np.eye(4)
    lams, vecs = _eig(mats)
    screen = _block_screen(lams)
    return [partial(_finish_cache, spec, d, dev, lams[lo:lo + n],
                    vecs[lo:lo + n], [x[lo:lo + n] for x in screen])
            for (spec, d), dev, lo, n in zip(groups, devs, starts, stops)]


def _finish_cache(spec: _WalkSpec, d: int, dev: float, lams: np.ndarray,
                  vecs: np.ndarray, screen) -> SpectralCache:
    """One group's cache from its share of _spectral_caches' stack."""
    if not dev <= _UNITARITY_TOL:
        raise RuntimeError("momentum block lost unitarity (%.3g)" % dev)
    gaps, near, moddev = screen
    if near.any():
        # Block k > d/2 holds the screen of block d - k: its phases are
        # the negated ones, so its gaps are the same numbers in another
        # order.
        mirror = _kernels._mirrored(np.arange(len(lams)), d)
        gaps, near = gaps[mirror], near[mirror]
    _screen_blocks((gaps, near, moddev), range(d))
    lams, vecs = (_kernels._mirrored(x, d) for x in (lams, vecs))
    labels, gaps = _phase_clusters(np.angle(lams.reshape(-1)), PHASE_TOL)
    return SpectralCache(d=d, theta=spec.theta, eigenvalues=lams,
                         eigenvectors=vecs, labels=labels, gaps=gaps)


def _spectral_cache(spec: _WalkSpec, d: int) -> SpectralCache:
    return _spectral_caches([(spec, d)])[0]()


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
