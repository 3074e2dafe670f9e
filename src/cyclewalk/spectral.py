"""Momentum-space route to exact probabilities and limiting distributions.

A translation-invariant walk on the d-cycle block-diagonalizes under
the discrete Fourier transform of the position register into d unitary
4x4 blocks, one per momentum k.  Each walk is one real 4x4 unitary U
and one 0/1 shift mask Pi, so its pair of shift blocks is A+ = Pi U
and A- = (1 - Pi) U, one step being out[n] = A+ a[n+1] + A- a[n-1]
(the walk module's specs); the kernels module builds the block
M_k = x A+ + conj(x) A- with x = e^{2 pi i k/d}.  build_Mk gives the
recycled-coin block at angle theta, build_Nk the memory-walk block.
With a walker starting localized at position 0 with coin vector psi,
and writing lam_j(k), phi_j(k) for the block eigensystems and
alpha_j(k) = <phi_j(k)|psi>, the state at step t has momentum
amplitudes sum_j lam_j(k)^t alpha_j(k) phi_j(k), one 4-vector per
block.  One inverse FFT over k takes them to the sites, and p(n, t)
is the squared norm of the coin vector at site n.

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
state and every time step.  The limit (_limiting_probs) takes a list
of caches and a stack of S start states.  Their blocks are joined into
one stack: the alphas come from one einsum, and the cluster
bookkeeping (sizes, routes, members, pair indices and frequencies) and
the pair terms are built once for every cache and state.  Each cache
then takes its own sums, those whose order sets the bits: the lone
eigenvalues' |alpha|^2, one inverse FFT per state along the last axis
of its (S, d) share, and its transform batches.  A transform batch
holds one column of d amplitudes per (state, cluster) of one cache, up
to _kernels._SCAN_CHUNK_AMPS amplitudes, in a buffer of its own that
one assignment of the clusters' amplitudes fills; one inverse FFT and
one reduction then add it to the distributions (_add_flat_bands).  A
sweep pack is one such call; limiting_distribution passes one cache
and one state, and gets the same bits as in any pack.  A+ and A- are real for
both walks, so M_{d-k} = conj(M_k), and block d - k takes the
conjugate eigenvalues and eigenvectors, with exactly negated phases.
On an even cycle x changes sign when k moves by d/2, so M_{k+d/2} =
-M_k and M_{d/2-k} = -conj(M_k) as well: block k + d/2 takes
(-lam, v) and block d/2 - k takes (-conj(lam), conj(v)).  So only the
representative blocks are diagonalized (_kernels._rep_stops): k <= d/4
on even d and k <= d/2 on odd d.  The eigenpairs of the others hold
for the blocks built directly to rounding in x.  The per-block
warnings are then issued for all d blocks in ascending k.

The eigensystems take one of two routes, by a fixed rule on the number
of blocks in the stack (_POLY_MIN_BLOCKS, the measured break-even, 32
blocks: a cache from d = 63 on odd d, from d = 124 on even d).  Smaller
stacks go to LAPACK's eig, with a QR basis for blocks whose
eigenvectors leave orthonormality by more than _POLY_EIG_TOL.
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
list of (walk, d) groups whose representative blocks form one stack:
one unitarity screen, one diagonalization and one screen of the block
phase gaps serve the whole stack.  One gather mirrors the blocks of
every group, one sort clusters the phases of every group, each apart
(_segment_clusters), and the unit-circle check and the warned flag (a
block or cluster gap within a decade of PHASE_TOL) are taken per group
by reduceat.  A group that fails a check fails alone, and a pack warns
of nothing: its groups carry the flags.  A sweep diagonalizes one pack
per run of consecutive d of a phi column, up to _POLY_CHUNK blocks
(_packs), so one C07 column, d = 2..50, is a single stack of 505
blocks on the polynomial route, although each of its caches alone
would take LAPACK, and then takes one limit for all of its groups and
states.  A single cache is the one-group pack (_checked issues its
warnings and raises its error), so its route and its bits do not
depend on the packs.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .walk import (CoinConfig, Distribution, InitialState, MODEL_MEMORY,
                   MODEL_RECYCLED, _count, _walk_spec, _WalkSpec)

#: Two eigenvalues are treated as equal when their phases differ by
#: less than this (radians, after unwrapping across the branch cut).
PHASE_TOL = 1e-9

_UNITARITY_TOL = 1e-10


class DegenerateClusterWarning(UserWarning):
    """Eigenvalue phase gaps near the matching tolerance."""


@dataclass(frozen=True)
class FourierBlock:
    """4x4 momentum block of a walk; theta is None for the memory walk."""

    k: int
    d: int
    theta: float | None
    matrix: np.ndarray = field(repr=False)


def _build_block(spec: _WalkSpec, k: int, d: int) -> FourierBlock:
    d = _count(d, "cycle length d", 2)
    k = _count(k, "momentum index k")
    if k >= d:
        raise ValueError("momentum index k=%d outside 0..%d" % (k, d - 1))
    block = _kernels._momentum_blocks(np.array([k]), d, spec)
    return FourierBlock(k=k, d=d, theta=spec.theta,
                        matrix=_kernels._complex_blocks(block)[0])


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

    Each row is one segment of _segment_clusters; returns its (labels,
    gaps) in the shape of phases.
    """
    n = phases.shape[-1]
    labels, gaps = _segment_clusters(phases.reshape(-1),
                                     np.full(phases.size // n, n), tol)
    return labels.reshape(phases.shape), gaps.reshape(phases.shape)


def _segment_clusters(phases: np.ndarray, sizes: np.ndarray, tol: float):
    """Label the phases that agree within tol, in each segment apart.

    phases is flat and holds consecutive segments of the given sizes.
    Each segment is sorted, split where a gap (_sorted_gaps) exceeds
    tol, and its last cluster takes its first one's label when the two
    meet across the branch cut.  One argsort of the phases, then, with
    more than one segment, a stable one of the segment ids in the
    smallest integer type that holds them (a radix sort), sort every
    segment; + 0.0 makes a zero gap +0.0, whichever of two equal phases
    (0.0 and -0.0) comes first.  Returns (labels, gaps): labels[i] names
    the cluster of phases[i] within its segment, counting from 0 in
    phase order; gaps holds the _sorted_gaps of each segment in turn.
    """
    ends = np.cumsum(sizes)
    starts, last = ends - sizes, ends - 1
    order = np.argsort(phases)
    if len(sizes) > 1:
        segment = np.repeat(np.arange(len(sizes), dtype=np.min_scalar_type(
            len(sizes))), sizes)
        order = order[np.argsort(segment[order], kind="stable")]
    sp = phases[order]
    gaps = np.empty_like(sp)
    np.subtract(sp[1:], sp[:-1], out=gaps[:-1])
    gaps[last] = 2.0 * np.pi - (sp[last] - sp[starts])
    gaps += 0.0
    split = gaps > tol
    sorted_labels = np.cumsum(split) - split
    sorted_labels -= np.repeat(sorted_labels[starts], sizes)
    wrap = (np.repeat(gaps[last] <= tol, sizes)
            & (sorted_labels == np.repeat(sorted_labels[last], sizes)))
    sorted_labels[wrap] = 0
    labels = np.empty_like(sorted_labels)
    labels[order] = sorted_labels
    return labels, gaps


def _near(gaps: np.ndarray) -> np.ndarray:
    """Where gaps lie within a decade of PHASE_TOL.

    There the equality call is unreliable: such a gap warns
    (_warn_ambiguous) and marks a sweep group warned.
    """
    return (gaps >= 0.1 * PHASE_TOL) & (gaps <= 10.0 * PHASE_TOL)


def _warn_ambiguous(gaps, context):
    near = gaps[_near(gaps)]
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


# Largest eigen-equation residual and orthonormality defect per block
# that the polynomial route keeps, and the orthonormality defect past
# which a LAPACK block gets a QR basis; LAPACK's are about 1e-15.
_POLY_EIG_TOL = 5e-14


def _lapack_eig(mats: np.ndarray):
    """Eigenvalues (n, 4) and orthonormal eigenvectors (n, 4, 4) of a stack.

    vecs[b][:, j] belongs to lams[b, j].  eig does not orthogonalize
    within degenerate subspaces, and returns nearly parallel vectors
    for phases just apart, while the projections alpha_j phi_j assume
    <phi_j|phi_l> = delta_jl inside a block.  So every block whose
    eigenvectors leave orthonormality by more than _POLY_EIG_TOL, the
    polynomial route's bar, gets a QR basis, in one batched call.
    """
    lams, vecs = np.linalg.eig(mats)
    skew = _unitarity_deviation(vecs) > _POLY_EIG_TOL
    if skew.any():
        vecs[skew] = np.linalg.qr(vecs[skew])[0]
    return lams, vecs


def _matmul_t(a: np.ndarray, b: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """a @ b for stacks of 4x4 matrices held block-last, shape (4, 4, n).

    numpy's matmul loops over small stacked matrices one at a time;
    block-last, each term is one broadcast product over all n blocks.
    The product goes to out and each term through tmp, when given.
    """
    out = np.multiply(a[:, :1], b[0], out=out)
    for j in range(1, 4):
        out += np.multiply(a[:, j:j + 1], b[j], out=tmp)
    return out


def _charpoly(mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a stack (..., 4, 4) of blocks.

    Returns c (..., 5) with det(z - M) = z^4 + c1 z^3 + c2 z^2 + c3 z
    + c4 and c0 = 1, each row as np.poly gives it for its block.
    """
    mt = np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1)))
    return np.moveaxis(_charpoly_t(mt), 0, -1)


def _charpoly_t(mt: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """_charpoly of blocks held block-last (4, 4, ...), rows c0..c4 first.

    By Faddeev-LeVerrier, from the power traces p_k = tr M^k through
    Newton's identities k c_k = -(p_k + c1 p_{k-1} + ... + c_{k-1} p1).
    M^2 goes to out, its terms through tmp (_matmul_t).
    """
    m2 = _matmul_t(mt, mt, out, tmp)
    p = (np.einsum("ii...->...", mt), np.einsum("ii...->...", m2),
         np.einsum("ij...,ji...->...", m2, mt),
         np.einsum("ij...,ji...->...", m2, m2))
    c = [np.ones_like(p[0])]
    for k in range(1, 5):
        c.append(-sum(c[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    return np.stack(c)


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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A sweep's pack passes up to _POLY_CHUNK blocks at once, so
        # every (4, 4, n) product goes into one of four arrays: the
        # block-last copy mt, the eigenvectors and two scratch arrays.
        # Broadcasting ufuncs would each add buffers of up to 8192
        # elements; the errstate block restores the buffer size.
        np.setbufsize(256)
        mt = np.ascontiguousarray(mats.transpose(1, 2, 0))
        buf, vecs = np.empty_like(mt), np.empty_like(mt)
        c = _charpoly_t(mt, buf, vecs)
        lam = _quartic_roots(c)
        krylov = [np.broadcast_to(_KRYLOV_START[:, None], (4, n))]
        for _ in range(3):
            krylov.append(np.multiply(mt, krylov[-1], out=buf).sum(axis=1))
        # a1, a2, a3 in turn, and their terms of q_j(M) r.
        a = c[1] + lam
        np.multiply(a, krylov[2][:, None], out=vecs)
        vecs += krylov[3][:, None]
        a = c[2] + lam * a
        vecs += np.multiply(a, krylov[1][:, None], out=buf)
        a = c[3] + lam * a
        vecs += np.multiply(a, krylov[0][:, None], out=buf)
        del c, krylov, a
        # Squared moduli, in buf's memory as floats.
        sq = buf.view(np.float64).reshape(2, 4, 4, n)
        np.square(vecs.real, out=sq[0])
        sq[0] += np.square(vecs.imag, out=sq[1])
        vecs /= np.sqrt(sq[0].sum(axis=0))
        tmp = np.empty_like(mt)
        mv = _matmul_t(mt, vecs, buf, tmp)
        lam = np.einsum("ij...,ij...->j...", np.conjugate(vecs, out=tmp), mv)
        mv -= np.multiply(vecs, lam, out=tmp)
        ok = np.abs(mv, out=tmp.real).max(axis=(0, 1)) <= _POLY_EIG_TOL
        # The Gram V^H V goes into mv's memory, its terms through mt's.
        gram = _matmul_t(np.conjugate(vecs, out=tmp).swapaxes(0, 1), vecs,
                         mv, mt)
        gram -= np.eye(4)[..., None]
        ok &= np.abs(gram, out=tmp.real).max(axis=(0, 1)) <= _POLY_EIG_TOL
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
    """What the screens read of each block of eigenvalues lams (n, 4).

    eigensystem screens its one block, _spectral_caches a whole stack.

    Returns the block's sorted phase gaps (n, 4) (_sorted_gaps), whether
    one of them lies within a decade of PHASE_TOL (n,), and how far its
    eigenvalues leave the unit circle (n,).
    """
    gaps = _sorted_gaps(np.sort(np.angle(lams), axis=-1))
    moddev = np.abs(np.abs(lams) - 1.0).max(axis=-1)
    return gaps, _near(gaps).any(axis=-1), moddev


def _off_circle(moddev):
    """The error for eigenvalues that leave the unit circle by moddev."""
    if not moddev <= _UNITARITY_TOL:
        return RuntimeError("eigenvalue left the unit circle by %.3g" % moddev)
    return None


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
    gaps, near, moddev = _block_screen(lams)
    if near[0]:
        _warn_ambiguous(gaps[0], "block k=%d" % k)
    error = _off_circle(moddev[0])
    if error is not None:
        raise error
    return EigenSystem(k=k, d=d, theta=theta,
                       eigenvalues=lams[0], eigenvectors=vecs[0])


@dataclass(frozen=True)
class SpectralCache:
    """Spectrum of one walk on one d-cycle, with its phases clustered.

    eigenvalues has shape (d, 4); eigenvectors (d, 4, 4) with vectors
    in columns.  Only the representative blocks (k <= d/4 on even d,
    k <= d/2 on odd d) hold eigensystems of their own; the others hold
    theirs mirrored: conjugated, and on even d negated (module
    docstring).  labels and gaps are the equal-phase clustering of the
    4d eigenphases at PHASE_TOL, flattened as K = 4k + j (see
    _phase_clusters); the limit sums clusters of s members with
    s^2 <= d as pairs and transforms the larger ones.  theta is None
    for the memory walk.  The cache holds no start state: every
    consumer takes one, and the limit a stack of them for a list of
    caches, so a sweep pack's groups and states share one batch.
    """

    d: int
    theta: float | None
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    gaps: np.ndarray = field(repr=False)


def _coin4_or_initial(psi) -> np.ndarray:
    # The Fourier route hard-codes the start at position 0; the phase
    # bookkeeping below is only valid there.  A raw coin vector is read
    # as a start there, so it takes InitialState's checks.
    if not isinstance(psi, InitialState):
        psi = InitialState(0, psi)
    if psi.position != 0:
        raise ValueError("spectral route requires the walk to start at "
                         "position 0, got position %d" % psi.position)
    return np.asarray(psi.coin4)


def _conj_t(stacks) -> np.ndarray:
    """The conjugated eigenvector stacks (K, 4, 4) joined, laid out (i, k, j).

    Returns (4, sum of K, 4): conj(vecs[k, i, j]) of each stack in turn.
    """
    conj = np.empty((4, sum(map(len, stacks)), 4), dtype=np.complex128)
    lo = 0
    for vecs in stacks:
        np.conjugate(vecs.transpose(1, 0, 2), out=conj[:, lo:lo + len(vecs)])
        lo += len(vecs)
    return conj


def _alphas(conj: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Overlaps alphas[..., k, j] = <phi_j(k)|psi> of position-0 starts.

    conj holds the eigenvectors as _conj_t lays them out; psis is one
    coin 4-vector or a stack (S, 4) of them.  Laid out (i, k, j), the
    einsum takes the same sums as on the stack itself ("kij"), in half
    the time for a stack of states.
    """
    return np.einsum("ikj,...i->...kj", conj, psis)


def _packs(ds) -> list:
    """The cycle lengths ds cut, in order, into packs of one walk's groups.

    A pack holds at most _POLY_CHUNK representative blocks
    (_kernels._rep_stops), for one _spectral_caches call; a d with more
    forms a pack of its own.  The cut depends on ds alone.
    """
    packs, size = [], 0
    for d, stop in zip(ds, _kernels._rep_stops(ds)):
        if not packs or size + stop > _POLY_CHUNK:
            packs.append([])
            size = 0
        packs[-1].append(d)
        size += stop
    return packs


class _Built(NamedTuple):
    """One group of a pack as _spectral_caches builds it.

    cache is None when error holds what fails the group.  warned is
    _near on any of its block or cluster phase gaps, so the group's
    limit is warned; near_blocks holds (k, gaps) for each block k whose
    gaps lie near PHASE_TOL, in ascending k, for _checked's warnings.
    """

    cache: SpectralCache | None
    error: Exception | None
    warned: bool
    near_blocks: tuple


def _spectral_caches(groups) -> list:
    """Caches of each group (spec, d) of groups, from one stack.

    The representative blocks are diagonalized (_kernels._rep_stops):
    k <= d/2 on odd d, whose blocks k > d/2 are the conjugates of
    blocks d - k, and k <= d/4 on even d, whose blocks k + d/2 are -M_k
    and d/2 - k are -conj(M_k) too; the eigensystems follow the blocks.
    The representatives of every group form one stack, which takes one
    unitarity screen (per group, by reduceat), one _eig call and one
    _block_screen.  One gather mirrors the eigensystems of every group
    (a source block, a conjugate flag and a negate flag each), one
    _segment_clusters call clusters the phases of each, and the
    unit-circle check and the warned flag are taken per group by
    reduceat.  Returns one _Built per group, in order: a group that
    fails either check fails alone.  The blocks of a group that fails
    the unitarity screen (NaN fails it) enter _eig as identities, so
    they cannot fail the stack.  A single cache is the one-group case
    (_spectral_cache).
    """
    groups = [(spec, _count(d, "cycle length d", 2)) for spec, d in groups]
    ds = np.array([d for _, d in groups])
    stops = np.array(_kernels._rep_stops(ds))
    starts = np.cumsum(stops) - stops
    runs = [_kernels._rep_blocks([d for _, d in run], spec)
            for spec, run in itertools.groupby(groups, key=lambda g: g[0])]
    mats = runs[0] if len(runs) == 1 else np.concatenate(runs)
    devs = np.maximum.reduceat(_unitarity_deviation(mats), starts)
    unitary = devs <= _UNITARITY_TOL
    if not unitary.all():
        mats[np.repeat(~unitary, stops)] = np.eye(4)
    lams, vecs = _eig(mats)
    bgaps, bnear, moddev = _block_screen(lams)
    moddev = np.maximum.reduceat(moddev, starts)
    # All d blocks of every group, one after the other: block k of a
    # group takes block m = min(k, d - k), conjugated for k > d/2.
    firsts = np.cumsum(ds) - ds
    dk = np.repeat(ds, ds)
    k = np.arange(len(dk)) - np.repeat(firsts, ds)
    m = np.minimum(k, dk - k)
    # With p = d/2 on even d, M_{p-m} = -conj(M_m), so m takes
    # representative min(m, p - m), conjugated once more and with its
    # eigenvalues negated where that moved it; p = d on odd d moves
    # none, so every cycle takes the same gather.
    p = np.repeat(np.where(ds % 2, ds, ds // 2), ds)
    rep = np.minimum(m, p - m)
    neg = rep < m
    flip = (2 * k > dk) ^ neg
    src = np.repeat(starts, ds) + rep
    lams, vecs = lams[src], vecs[src]
    np.conjugate(lams, out=lams, where=flip[:, None])
    np.negative(lams, out=lams, where=neg[:, None])
    np.conjugate(vecs, out=vecs, where=flip[:, None, None])
    labels, gaps = _segment_clusters(np.angle(lams.reshape(-1)), 4 * ds,
                                     PHASE_TOL)
    near = np.logical_or.reduceat(bnear, starts)
    warned = near | np.logical_or.reduceat(_near(gaps), 4 * firsts)
    built = []
    for g, (spec, d) in enumerate(groups):
        if not unitary[g]:
            built.append(_Built(None, RuntimeError(
                "momentum block lost unitarity (%.3g)" % devs[g]), False, ()))
            continue
        lo, hi = firsts[g], firsts[g] + d
        blocks = ()
        if near[g]:
            blocks = tuple((i, bgaps[b]) for i, b in enumerate(src[lo:hi])
                           if bnear[b])
        error = _off_circle(moddev[g])
        if error is not None:
            built.append(_Built(None, error, False, blocks))
            continue
        built.append(_Built(
            SpectralCache(d=d, theta=spec.theta, eigenvalues=lams[lo:hi],
                          eigenvectors=vecs[lo:hi],
                          labels=labels[4 * lo:4 * hi],
                          gaps=gaps[4 * lo:4 * hi]),
            None, bool(warned[g]), blocks))
    return built


def _checked(built: _Built) -> SpectralCache:
    """A group's cache as a single call gives it.

    Warns of its blocks' phase gaps near PHASE_TOL, in ascending k, and
    then raises what failed the group, if anything did.
    """
    for k, gaps in built.near_blocks:
        _warn_ambiguous(gaps, "block k=%d" % k)
    if built.error is not None:
        raise built.error
    return built.cache


def _spectral_cache(spec: _WalkSpec, d: int) -> SpectralCache:
    return _checked(_spectral_caches([(spec, d)])[0])


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
    t = _count(t, "time step")
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
                     phases * _alphas(_conj_t([cache.eigenvectors]),
                                      _coin4_or_initial(psi)))
    sites = np.fft.ifft(amps, axis=0)
    return Distribution(d=cache.d, probs=np.sum(np.abs(sites) ** 2, axis=1))


def closed_form_probability(n: int, t: int, cfg: CoinConfig, psi,
                            d: int | None = None,
                            cache: SpectralCache | None = None) -> float:
    """p(n, t) from the block eigensystems; see closed_form_distribution."""
    n = _count(n, "position")
    dist = closed_form_distribution(t, cfg, psi, d=d, cache=cache)
    if n >= dist.d:
        raise ValueError("position %d outside cycle of length %d" % (n, dist.d))
    return float(dist.probs[n])


def _limiting_probs(caches, psis: np.ndarray) -> np.ndarray:
    """Limiting distributions of the position-0 starts psis (S, 4).

    Returns (S, D), D the sum of the caches' d: the distributions on
    each cache of caches side by side, in order.  The caches' blocks
    are joined into one stack, and each cache's cluster labels are
    moved into the flat indices it owns there: the alphas, the cluster
    bookkeeping and the pair terms are built once for every cache and
    every state.  The sums whose order sets the bits (the lone
    eigenvalues' |alpha|^2, the inverse FFTs and the transform batches)
    are taken cache by cache, so each cache's distributions are its
    one-cache limit bit for bit.
    """
    ns = len(psis)
    ds = [c.d for c in caches]
    firsts = list(itertools.accumulate(ds[:-1], initial=0))
    sizes, starts = [4 * d for d in ds], [4 * lo for lo in firsts]
    conj = _conj_t([c.eigenvectors for c in caches])
    alphas = _alphas(conj, psis).reshape(ns, -1)
    conj = conj.reshape(4, -1)
    labels = np.concatenate([c.labels for c in caches])
    # Flat index K = 4k + j is eigenvector j of block k of the joined
    # stack; a cache with its first block at first owns K = 4 first to
    # 4 (first + d) - 1.  Its labels are below 4d, so they move there.
    dflat = np.repeat(ds, sizes)
    offset = np.repeat(starts, sizes)
    labels = labels + offset
    counts = np.bincount(labels, minlength=labels.size)
    # A cluster of s takes s^2 pair terms on the pair route, or one
    # length-d transform: the larger ones take the transform.
    wide = counts * counts > dflat
    big = wide[labels]
    # Only members of clusters of two or more need amplitudes
    # v = alpha phi.  Sorted by route, then by cluster, the pair route's
    # members come first and each cluster's members sit side by side.
    members = np.flatnonzero(counts[labels] > 1)
    key = labels[members] + big[members] * labels.size
    order = np.argsort(key, kind="stable")
    members, key = members[order], key[order]
    split = np.searchsorted(key, labels.size)
    k = members // 4

    def amps(flat):
        # v = alpha phi (S, len(flat), 4) of the flat indices, phi the
        # conjugate of conj's column.  take, not alphas[:, flat]: that
        # one comes out in column order.
        phi = np.conjugate(conj.take(flat, axis=1).T)
        return phi * alphas.take(flat, axis=1)[..., None]

    # Pair route: each eigenvalue outside the big clusters adds |alpha|^2
    # at frequency 0, each pair a < b of a small cluster 2 <v_a|v_b> at
    # frequency k_b - k_a mod d of its cache, whose blocks own columns
    # first..first + d - 1 of z; one inverse FFT per cache and state
    # sums them all.  The member at a has later[a] partners after it, up
    # to the end of its cluster: its pairs are numbered on from
    # cumsum(later)[a] - later[a], and the first takes b = a + 1.
    sk, sl = k[:split], key[:split]
    end = np.searchsorted(sl, sl, side="right")
    later = end - 1 - np.arange(split)
    a = np.repeat(np.arange(split), later)
    b = np.arange(a.size) + (end - np.cumsum(later))[a]
    va = amps(members[a])
    w = 2.0 * np.einsum("spc,spc->sp", np.conjugate(va, out=va),
                        amps(members[b]))
    ka = sk[a]
    f = (sk[b] - ka) % dflat[::4][ka] + offset[::4][ka] // 4
    # A pack's arrays are dropped once used: they bound its peak.
    del va, a, b, ka, dflat, offset
    z = np.zeros((ns, len(labels) // 4), dtype=np.complex128)
    np.add.at(z, (slice(None), f), w)
    del f, w
    lone = ~big
    probs = np.empty(z.shape)
    for lo, d in zip(firsts, ds):
        flat = slice(4 * lo, 4 * (lo + d))
        rest = np.ascontiguousarray(alphas[:, flat][:, lone[flat]])
        rest = rest.view(np.float64)
        # einsum, not vdot: OpenBLAS's threaded dot costs milliseconds
        # on rows of 16,384 and more.
        z[:, lo] += np.einsum("sm,sm->s", rest, rest)
        np.divide(np.fft.ifft(z[:, lo:lo + d], axis=-1).real, d,
                  out=probs[:, lo:lo + d])
    del z

    # Transform route: the big clusters are numbered cid = 0, 1, ...
    # across the caches, nbig[g] of them in cache g.
    members, k = members[split:], k[split:]
    if members.size:
        cid = np.cumsum(wide)[labels[members]] - 1
        nbig = np.add.reduceat(wide, starts)
        phi = np.conjugate(conj.take(members, axis=1).T)
        alpha = alphas.take(members, axis=1)
        # The buffers come after every other array of the stack goes:
        # they would set the peak.
        del conj, alphas, counts, wide, big, key, order, lone, end, later
        _add_flat_bands(probs, ds, firsts, nbig, k, cid, phi, alpha)
    return probs


def _add_flat_bands(probs, ds, firsts, nbig, k, cid, phi, alpha):
    """Add the big clusters of every cache to probs (S, sum of ds).

    Cache g, whose blocks are columns first..first + d - 1 of the joined
    stack and of probs, holds nbig[g] of the clusters, numbered on across
    the caches.  Member i, eigenvector phi[i] (4,) of block k[i] of the
    stack with overlaps alpha[:, i] (S,), belongs to cluster cid[i]; the
    members are sorted by cluster, then by block.  Each (state, cluster)
    is one column of d amplitudes, the sum of the cluster's v = alpha
    phi on each block k, and adds p_C(n) = |ifft over k of the column|^2
    summed over coins.  A cache's columns go in batches of at most
    per columns, the scan's chunk length on a d-cycle
    (_kernels._scan_chunk_len), nst states by ncl clusters, each in a
    buffer of its own laid out (k, state, cluster, coin); each
    batch takes one inverse FFT along k and one reduction into probs,
    in a fixed order, so its bits do not depend on the caches beside
    it.  A batch's v go in by one fancy-index assignment, unless some
    cluster holds two members of one block: then every batch takes
    np.add.at into its zeros, which adds them.  The sign of a zero
    entry cannot reach probs: the transform only adds and multiplies,
    and the reduction squares.
    """
    ns = len(probs)
    # Members are sorted by cluster, then by block: a shared block shows
    # as two neighbours on one cluster and one block.
    shared = ((cid[1:] == cid[:-1]) & (k[1:] == k[:-1])).any()
    c0 = 0
    for d, first, n in zip(ds, firsts, nbig.tolist()):
        per = _kernels._scan_chunk_len(d)
        nst = min(ns, per)
        ncl = per // nst
        for lo in range(c0, c0 + n, ncl):
            h = min(ncl, c0 + n - lo)
            a, b = cid.searchsorted((lo, lo + h)).tolist()
            at = (k[a:b] - first, slice(None), cid[a:b] - lo)
            for s0 in range(0, ns, nst):
                w = min(nst, ns - s0)
                buf = np.zeros((d, w, h, 4), dtype=np.complex128)
                v = (phi[a:b] * alpha[s0:s0 + w, a:b, None]).swapaxes(0, 1)
                if shared:
                    np.add.at(buf, at, v)
                else:
                    buf[at] = v
                np.fft.ifft(buf, axis=0, out=buf)
                parts = buf.view(np.float64)
                probs[s0:s0 + w, first:first + d] += np.einsum(
                    "nscj,nscj->sn", parts, parts)
                # Dropped before the next buffer is made: one batch's
                # buffer and product bound the peak.
                del buf, parts, v
        c0 += n


def _limiting(spec: _WalkSpec, d: int, psi,
              cache: SpectralCache | None) -> Distribution:
    if cache is None:
        cache = _spectral_cache(spec, d)
    else:
        _cache_matches(cache, d, spec.theta)
    psis = _coin4_or_initial(psi)[None]
    _warn_ambiguous(cache.gaps, "d=%d limiting distribution" % d)
    return Distribution(d=d, probs=_limiting_probs([cache], psis)[0])


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
    d = _count(d, "cycle length d", 2)
    ms = _kernels._fourier_blocks(d, _walk_spec(MODEL_RECYCLED,
                                                CoinConfig(2.0)))
    ns = _kernels._fourier_blocks(d, _walk_spec(MODEL_MEMORY))
    lam_m = np.linalg.eigvals(ms)
    lam_n = np.linalg.eigvals(ns)
    return max(eigenvalue_multiset_distance(lam_n[k], lam_m[k])
               for k in range(d))
