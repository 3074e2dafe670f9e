"""Evolution kernels for the cycle walks.

A walk is given by its one-step rule, ``step(a, *coin) -> out``, over
a (d, 4) complex128 amplitude table.  The rule has the form

    out[n] = A+ a[n+1] + A- a[n-1]   (indices mod d)

for two 4x4 matrices A+ and A-; ``_shift_blocks`` reads them off the
rule, so the rule is the only place a walk's coefficients are written
down.  Its Fourier block at momentum k is M_k = x A+ + conj(x) A- with
x = e^{2 pi i k/d} (``_fourier_blocks``); the spectral module builds
its blocks the same way.  The kernels take the rule and its coin
arguments after the table and the step count:

    evolve(amps, steps, step, *coin)            -> amps
    evolve_accumulate(amps, steps, step, *coin) -> (amps, acc)
    normscan(amps, steps, step, *coin)          -> (amps, drift, norm)

where acc[n] is the sum of the position-n probability over steps
t = 1..steps, drift is the largest per-step change of the state norm
and norm is the final state norm.  Inputs are never mutated.

Component order per site is fixed by the walk module: recycled-coin
states hold (c1 c2) = (dd, du, ud, uu) and memory states hold
(coin, memory) = (dd, du, ud, uu).  The recycled rule takes c and s,
cos(theta) and sin(theta) of the second coin block; the first block is
always the Hadamard angle.  The memory rule takes no coin arguments.

``evolve`` applies the rule site by site: the position-space reference.
The other kernels read one stream of states, ``_scan``.  On cycles up
to ``_FOURIER_SCAN_MAX_D`` sites it runs in momentum space: an
orthonormal FFT over sites takes the table there, where one step is
the block M_k at each frequency k.  The steps are taken in chunks of
at most ``_SCAN_CHUNK_AMPS`` amplitudes, so memory does not grow with
the step count.  Within a chunk the states t = 1..L come from
log-depth doubling, X <- [X, M^|X| X], with the powers M^(2^m) from
repeated squaring, and the last state seeds the next chunk.  On larger
cycles an O(d) site step beats the block products and the O(d log d)
inverse FFT each state would need, so the stream is the rule applied
site by site, its states copied into chunks.

The scan takes each momentum chunk back in place (one inverse FFT
along the site axis) and ``_probs`` reduces a chunk to p(n, t) or its
sums: the stream of probabilities behind ``evolve_accumulate`` and the
analysis module's theorem checks, mixing curves and crosscheck.  The
norm scan stays in momentum space, takes each state's norm there (by
Parseval) and transforms only the final state back.  No
eigendecomposition is involved, so all stay independent of the
spectral module.
"""

import functools

import numpy as np

_SQ2 = 1.0 / np.sqrt(2.0)


def _step_recycled(a, c, s):
    # up[n] = a[n+1], dn[n] = a[n-1] (indices mod d): a left mover arrives
    # at n from n+1, a right mover from n-1.
    up = np.roll(a, -1, axis=0)
    dn = np.roll(a, 1, axis=0)
    out = np.empty_like(a)
    out[:, 0] = _SQ2 * (up[:, 0] + up[:, 1])
    out[:, 1] = c * up[:, 2] + s * up[:, 3]
    out[:, 2] = _SQ2 * (dn[:, 0] - dn[:, 1])
    out[:, 3] = s * dn[:, 2] - c * dn[:, 3]
    return out


def _step_memory(a):
    up = np.roll(a, -1, axis=0)
    dn = np.roll(a, 1, axis=0)
    out = np.empty_like(a)
    out[:, 0] = _SQ2 * (up[:, 0] + up[:, 2])
    out[:, 1] = _SQ2 * (dn[:, 1] + dn[:, 3])
    out[:, 2] = _SQ2 * (up[:, 1] - up[:, 3])
    out[:, 3] = _SQ2 * (dn[:, 0] - dn[:, 2])
    return out


def evolve(amps, steps, step, *coin):
    a = amps.copy()
    for _ in range(steps):
        a = step(a, *coin)
    return a


@functools.lru_cache(maxsize=256)
def _shift_blocks(step, *coin):
    """Split a one-step rule into out[n] = A+ a[n+1] + A- a[n-1].

    The rule runs once on a 3-site probe holding the identity at site
    0: site 2 then receives only what arrives from its n+1 neighbour
    (A+) and site 1 only what arrives from n-1 (A-).  A+ + A- is the
    coin-and-swap matrix; the nonzero rows of A+ are the rows that
    arrive from n+1.  The probe runs once per (rule, coin); the blocks
    are memoized and come back read-only.
    """
    probe = np.zeros((3, 4, 4), dtype=np.complex128)
    probe[0] = np.eye(4)
    out = step(probe, *coin)
    out.setflags(write=False)
    return out[2], out[1]


def _fourier_blocks(d, a_plus, a_minus, stop=None):
    """The momentum blocks M_k = x A+ + conj(x) A-, x = e^{2 pi i k/d}.

    One block for each k < stop, all d by default.  np.fft.fft takes
    a[n+1] to x times the transform of a, so M_k is one step of the
    rule at frequency k.
    """
    x = np.exp(2j * np.pi * np.arange(d if stop is None else stop) / d)
    x = x[:, None, None]
    return x * a_plus + x.conj() * a_minus


# Amplitudes held by one chunk of states in the scan, and by one batch
# of cluster transforms in the spectral limit (one per start state and
# cluster of more than sqrt(d) eigenvalues; the limit sums smaller ones
# as pairs); it bounds their memory independently of the step count and
# of the numbers of clusters and states.
_SCAN_CHUNK_AMPS = 1 << 14

# Largest cycle the scan runs in momentum space.  Above it one O(d) site
# step beats the block products (one small matmul per frequency) and the
# O(d log d) inverse FFT that each state then needs.
_FOURIER_SCAN_MAX_D = 352


def _scan_chunk_len(d):
    """Steps per chunk of the scan on a d-cycle."""
    return max(1, _SCAN_CHUNK_AMPS // (4 * d))


def _scan(amps, steps, step, *coin, sites=True):
    """Yield the states t = 1..steps in (d, n, 4) chunks (module docstring).

    The states are at the sites; with sites=False, momentum chunks stay
    in momentum space (orthonormal FFT over sites).  A chunk is valid
    until the next one is drawn; the input is never touched.
    """
    d = amps.shape[0]
    fourier = d <= _FOURIER_SCAN_MAX_D
    chunk = min(_scan_chunk_len(d), max(steps, 1))
    buf = np.empty((d, chunk, 4), dtype=np.complex128)
    state = amps
    if fourier:
        # A state is a row at each k, so a step multiplies by M_k^T.
        blocks = _fourier_blocks(d, *_shift_blocks(step, *coin))
        powers = [blocks.swapaxes(1, 2).copy()]
        while 1 << len(powers) < chunk:
            powers.append(powers[-1] @ powers[-1])
        state = np.fft.fft(amps, axis=0, norm="ortho")[:, None, :]
    for done in range(0, steps, chunk):
        n = min(chunk, steps - done)
        out = buf[:, :n]
        if fourier:
            # Doubling: buf[:, :h] holds steps 1..h of this chunk, and
            # M^h advances them to steps h+1..2h.
            np.matmul(state, powers[0], out=buf[:, :1])
            h, m = 1, 0
            while h < n:
                take = min(h, n - h)
                np.matmul(buf[:, :take], powers[m], out=buf[:, h:h + take])
                h, m = h + take, m + 1
            state = buf[:, n - 1:n].copy()
            if sites:
                # In place (numpy >= 2.0), so no second chunk is held.
                np.fft.ifft(out, axis=0, norm="ortho", out=out)
        else:
            for i in range(n):
                state = step(state, *coin)
                buf[:, i] = state
        yield out


def _probs(chunk, keep="nt"):
    """Sums of |a|^2 over a (d, n, 4) chunk; keep names the axes kept.

    "nt" gives p(., t) per state, "n" its sum over states, "t" norms^2.
    """
    # Real and imaginary parts side by side: one pass per state.
    parts = chunk.view(np.float64)
    return np.einsum("ntj,ntj->" + keep, parts, parts)


def evolve_accumulate(amps, steps, step, *coin):
    acc = np.zeros(amps.shape[0], dtype=np.float64)
    sites = amps[:, None, :]
    for sites in _scan(amps, steps, step, *coin):
        acc += _probs(sites, "n")
    return sites[:, -1].copy(), acc


def normscan(amps, steps, step, *coin):
    """Evolve while tracking the norm (module docstring)."""
    prev = float(np.sqrt(np.sum(np.abs(amps) ** 2)))
    drift, chunk = 0.0, amps[:, None, :]
    for chunk in _scan(amps, steps, step, *coin, sites=False):
        # By Parseval a momentum state has its site norm.
        norms = np.sqrt(_probs(chunk, "t"))
        drift = max(drift, abs(float(norms[0]) - prev),
                    float(np.abs(np.diff(norms)).max(initial=0.0)))
        prev = float(norms[-1])
    out = chunk[:, -1]
    if steps and amps.shape[0] <= _FOURIER_SCAN_MAX_D:
        return np.fft.ifft(out, axis=0, norm="ortho"), drift, prev
    return out.copy(), drift, prev
