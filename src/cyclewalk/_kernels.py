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

``evolve`` applies the rule site by site.  ``evolve_accumulate`` and
``normscan`` are two reductions over one stream of states, ``_scan``.
On cycles up to ``_FOURIER_SCAN_MAX_D`` sites the stream runs in
momentum space: an orthonormal FFT over sites takes the table there,
where one step is the block M_k at each frequency k.  The steps are
taken in chunks of at most ``_SCAN_CHUNK_AMPS`` amplitudes, so memory
does not grow with the step count.  Within a chunk the states
t = 1..L come from log-depth doubling, X <- [X, M^|X| X], with the
powers M^(2^m) from repeated squaring, and the last state seeds the
next chunk.  On larger cycles an O(d) site step beats the block
products and the O(d log d) inverse FFT each state would need, so the
stream is the rule applied site by site, one state per chunk.

The accumulation transforms each momentum chunk back in place, one
inverse FFT along the site axis, and sums |a|^2 over components and
steps.  The norm scan takes each state's norm where it stands (by
Parseval in momentum space) and transforms only the final state back.
No eigendecomposition is involved, so both stay independent of the
spectral module.
"""

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


def _shift_blocks(step, *coin):
    """Split a one-step rule into out[n] = A+ a[n+1] + A- a[n-1].

    The rule runs once on a 3-site probe holding the identity at site
    0: site 2 then receives only what arrives from its n+1 neighbour
    (A+) and site 1 only what arrives from n-1 (A-).  A+ + A- is the
    coin-and-swap matrix; the nonzero rows of A+ are the rows that
    arrive from n+1.
    """
    probe = np.zeros((3, 4, 4), dtype=np.complex128)
    probe[0] = np.eye(4)
    out = step(probe, *coin)
    return out[2], out[1]


def _fourier_blocks(d, step, *coin):
    """The d momentum blocks M_k = x A+ + conj(x) A-, x = e^{2 pi i k/d}.

    np.fft.fft takes a[n+1] to x times the transform of a, so M_k is
    one step of the rule at frequency k.
    """
    a_plus, a_minus = _shift_blocks(step, *coin)
    x = np.exp(2j * np.pi * np.arange(d) / d)[:, None, None]
    return x * a_plus + x.conj() * a_minus


# Amplitudes held by one chunk of states in the Fourier scan; it
# bounds the scan's memory independently of the step count.
_SCAN_CHUNK_AMPS = 1 << 14

# Largest cycle the scan runs in momentum space.  Above it one O(d) site
# step beats the block products (one small matmul per frequency) and the
# O(d log d) inverse FFT that each state then needs.
_FOURIER_SCAN_MAX_D = 352


def _scan_chunk_len(d):
    """Steps per chunk of the Fourier scan on a d-cycle."""
    return max(1, _SCAN_CHUNK_AMPS // (4 * d))


def _scan(amps, steps, step, *coin):
    """Yield the states t = 1..steps in chunks (module docstring).

    Each item is (fourier, chunk), chunk a (d, 4, n) array of n
    consecutive states: in momentum space (orthonormal FFT over sites)
    if fourier, else at the sites.  A chunk stays valid until the next
    one is drawn; a momentum chunk may be overwritten in place.
    """
    d = amps.shape[0]
    if d > _FOURIER_SCAN_MAX_D:
        a = amps
        for _ in range(steps):
            a = step(a, *coin)
            yield False, a[:, :, None]
        return
    powers = [_fourier_blocks(d, step, *coin)]
    chunk = min(_scan_chunk_len(d), steps)
    while 1 << len(powers) < chunk:
        powers.append(powers[-1] @ powers[-1])
    state = np.fft.fft(amps, axis=0, norm="ortho")[:, :, None]
    buf = np.empty((d, 4, chunk), dtype=np.complex128)
    done = 0
    while done < steps:
        n = min(chunk, steps - done)
        # Doubling: buf[..., :h] holds steps 1..h of this chunk, and
        # M^h advances them to steps h+1..2h.
        np.matmul(powers[0], state, out=buf[:, :, :1])
        h, m = 1, 0
        while h < n:
            take = min(h, n - h)
            np.matmul(powers[m], buf[:, :, :take], out=buf[:, :, h:h + take])
            h, m = h + take, m + 1
        state = buf[:, :, n - 1:n].copy()
        done += n
        yield True, buf[:, :, :n]


def evolve_accumulate(amps, steps, step, *coin):
    acc = np.zeros(amps.shape[0], dtype=np.float64)
    chunk = amps[:, :, None]
    for fourier, chunk in _scan(amps, steps, step, *coin):
        if fourier:
            # In place (numpy >= 2.0), so no second chunk is ever held.
            np.fft.ifft(chunk, axis=0, norm="ortho", out=chunk)
        # Real and imaginary parts side by side: one pass per site.
        parts = chunk.view(np.float64)
        acc += np.einsum("nij,nij->n", parts, parts)
    return chunk[:, :, -1].copy(), acc


def normscan(amps, steps, step, *coin):
    """Evolve while tracking the norm (module docstring)."""
    prev = float(np.sqrt(np.sum(np.abs(amps) ** 2)))
    drift = 0.0
    fourier, chunk = False, amps[:, :, None]
    for fourier, chunk in _scan(amps, steps, step, *coin):
        # By Parseval a momentum state has its site norm.
        re, im = chunk.real, chunk.imag
        norms = np.sqrt(np.einsum("kit,kit->t", re, re)
                        + np.einsum("kit,kit->t", im, im))
        drift = max(drift, abs(float(norms[0]) - prev),
                    float(np.abs(np.diff(norms)).max(initial=0.0)))
        prev = float(norms[-1])
    out = chunk[:, :, -1]
    if fourier:
        return np.fft.ifft(out, axis=0, norm="ortho"), drift, prev
    return out.copy(), drift, prev
