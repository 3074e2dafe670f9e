"""Evolution kernels for the cycle walks.

A walk is given by its one-step rule, ``step(a, *coin) -> out``, over
a (d, 4) complex128 amplitude table.  The rule has the form

    out[n] = A+ a[n+1] + A- a[n-1]   (indices mod d)

for two 4x4 matrices A+ and A-; ``_shift_blocks`` reads them off the
rule, so the rule is the only place a walk's coefficients are written
down, and checks once that they are real.  The Fourier block at
momentum k is M_k = x A+ + conj(x) A-, x = e^{2 pi i k/d}, and
``_real_blocks`` alone computes it, as the real 8x8 B_k that steps the
float view of a row of 4 amplitudes: float(v) @ B_k = float(M_k v).
Every kernel steps float views by B_k, and ``_fourier_blocks`` is the
complex view that the spectral module diagonalizes.  The kernels take
the rule and its coin arguments after the table and the step count:

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

``evolve`` takes one of two routes, by a fixed rule on (d, steps): it
applies the rule site by site below ``_power_min_steps(d)`` steps, the
measured break-even (3 to 32 steps, growing with d), and otherwise
takes all the steps as one power of the blocks in O(d log t) time and
O(d) memory.  A+ and A- are real, so the rule steps the real and
imaginary parts of the table apart and M_{d-k} = conj(M_k): a real FFT
(k <= d/2) takes the two parts to momentum space as two complex rows
per k, their float views take B_k^t from right-to-left binary
exponentiation (square the power, multiply the state in for each set
bit of t) on the blocks k <= d/2 only, and one inverse real FFT
returns.  ``_squarings`` is the one squaring ladder; from level
``_POLISH_LEVEL`` on it polishes each square back onto the unitary
group, so the norm holds to about 1e-13 at t = 10^6.  The independent
reference for both routes is the dense operator of tests/oracles.py.

The other kernels read one stream of states, ``_scan``.  On cycles up
to ``_FOURIER_SCAN_MAX_D`` sites it runs in momentum space: an
orthonormal FFT over sites takes the table there, where one step is
B_k on the float view of the row at each frequency k.  The steps are
taken in chunks of at most ``_SCAN_CHUNK_AMPS`` amplitudes, so memory
does not grow with the step count.  Within a chunk the states
t = 1..L come from log-depth doubling, X <- [X, X B^|X|], with the
powers B^(2^m) from the same ladder, and the last state seeds the
next chunk.  On larger
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
import itertools

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


@functools.lru_cache(maxsize=256)
def _shift_blocks(step, *coin):
    """Split a one-step rule into out[n] = A+ a[n+1] + A- a[n-1].

    The rule runs once on a 3-site probe holding the identity at site
    0: site 2 then receives only what arrives from its n+1 neighbour
    (A+) and site 1 only what arrives from n-1 (A-).  A+ + A- is the
    coin-and-swap matrix; the nonzero rows of A+ are the rows that
    arrive from n+1.  Every kernel and the spectral cache rest on A+
    and A- being real (module docstring), so a rule with complex ones
    raises ValueError here.  The probe runs once per (rule, coin); the
    real blocks are memoized and come back read-only.
    """
    probe = np.zeros((3, 4, 4), dtype=np.complex128)
    probe[0] = np.eye(4)
    out = step(probe, *coin)
    if out.imag.any():
        raise ValueError("the mirror M_{d-k} = conj(M_k) needs real shift "
                         "blocks A+ and A-; this walk's are complex")
    out = out.real.copy()
    out.setflags(write=False)
    return out[2], out[1]


@functools.lru_cache(maxsize=256)
def _block_terms(step, *coin):
    """_real_blocks' two constant terms as one read-only (2, 64)."""
    a_plus, a_minus = _shift_blocks(step, *coin)
    # terms[t, j, p, i, q] is term t's entry B[2j + p, 2i + q].
    terms = np.zeros((2, 4, 2, 4, 2))
    terms[0, :, 0, :, 0] = terms[0, :, 1, :, 1] = (a_plus + a_minus).T
    terms[1, :, 0, :, 1] = (a_plus - a_minus).T
    terms[1, :, 1, :, 0] = (a_minus - a_plus).T
    terms.setflags(write=False)
    return terms.reshape(2, 64)


def _real_blocks(d, step, *coin, stop=None):
    """The momentum blocks M_k, k < stop (all d), as real 8x8 B_k.

    float(v) @ B_k = float(M_k v) for the float view of a row v (module
    docstring).  M_k = Re(x) S + i Im(x) D for S = A+ + A- and
    D = A+ - A-, so B_k is the (re, im) pair of x times two constant
    terms (_block_terms).  A+ and A- share no nonzero row, so every
    entry is one exact product and the even rows of B_k, as (re, im)
    pairs, are M_k^T bit for bit.
    """
    x = np.exp(2j * np.pi * np.arange(d if stop is None else stop) / d)
    pairs = x.view(np.float64).reshape(-1, 2)
    return (pairs @ _block_terms(step, *coin)).reshape(-1, 8, 8)


def _fourier_blocks(d, step, *coin, stop=None):
    """The complex blocks M_k = x A+ + conj(x) A-, k < stop (all d).

    The complex view of _real_blocks' even rows, transposed, as a
    contiguous stack.  np.fft.fft takes a[n+1] to x times the transform
    of a, so M_k is one step of the rule at frequency k.
    """
    rows = _real_blocks(d, step, *coin, stop=stop)[:, ::2]
    return np.ascontiguousarray(rows.view(np.complex128).swapaxes(1, 2))


def _mirrored(x, d):
    """All d entries from the entries k <= d/2 of blocks or spectra.

    x holds entries k = 0..d // 2 along its first axis; entry k > d/2
    is conj(x[d - k]), as for the blocks of a real rule.
    """
    return np.concatenate((x, x[d - len(x):0:-1].conj()))


# Squaring doubles a power's distance from the unitary group and adds
# rounding, so M^(2^m) sits about 2^m ulps off it; from this level on
# each square is polished back (_polish), which holds the distance at
# about 2^_POLISH_LEVEL ulps however long the power.
_POLISH_LEVEL = 10


def _polish(p):
    """One Newton-Schulz step p (3 - p^H p) / 2 towards the unitary group.

    For a stack p within a few thousand ulps of unitary this is the
    nearest unitary (the polar factor of p) to rounding; the phase
    error, which squaring also doubles, is left as it is.
    """
    g = np.matmul(p.conj().swapaxes(-1, -2), p)
    g *= -0.5
    diag = range(p.shape[-1])
    g[..., diag, diag] += 1.5
    return p @ g


def _squarings(power):
    """Yield power, power^2, power^4, ... of a stack of square blocks."""
    for level in itertools.count(1):
        yield power
        power = power @ power
        if level >= _POLISH_LEVEL:
            power = _polish(power)


def _power_min_steps(d):
    """Fewest steps that evolve takes as a power of the blocks.

    The break-even measured with numpy on 2 vCPUs: 3 steps up to
    d = 128, about d/64 steps up to d = 1024 and 24 to 32 steps from
    d = 2048 on, where a site step and a squaring both cost O(d).
    """
    return min(32, max(3, d // 64))


def evolve(amps, steps, step, *coin):
    """The state after `steps` steps of the rule (module docstring)."""
    d = amps.shape[0]
    if steps < _power_min_steps(d):
        a = amps.copy()
        for _ in range(steps):
            a = step(a, *coin)
        return a
    # The rule is real, so it steps the real and imaginary parts of the
    # table apart: two real rows per site, whose transforms are fixed by
    # k <= d/2 (rfft).  There each row, as 8 floats, takes B_k^(2^m) for
    # each set bit m of steps.
    parts = np.fft.rfft(np.stack((amps.real, amps.imag), axis=1), axis=0,
                        norm="ortho")
    state = parts.view(np.float64)
    for power in _squarings(_real_blocks(d, step, *coin, stop=d // 2 + 1)):
        if steps & 1:
            state = state @ power
        steps >>= 1
        if not steps:
            break
    parts = np.fft.irfft(state.view(np.complex128), n=d, axis=0,
                         norm="ortho")
    return parts[:, 0] + 1j * parts[:, 1]


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
        # A state is a row of 8 floats at each k, so a step is B_k; the
        # doubling below needs the powers up to B^(chunk/2).
        ladder = _squarings(_real_blocks(d, step, *coin))
        powers = list(itertools.islice(ladder,
                                       max(1, (chunk - 1).bit_length())))
        state = np.fft.fft(amps, axis=0, norm="ortho")[:, None, :]
        state = state.view(np.float64)
    floats = buf.view(np.float64)
    for done in range(0, steps, chunk):
        n = min(chunk, steps - done)
        out = buf[:, :n]
        if fourier:
            # Doubling: buf[:, :h] holds steps 1..h of this chunk, and
            # B^h advances them to steps h+1..2h.
            np.matmul(state, powers[0], out=floats[:, :1])
            h, m = 1, 0
            while h < n:
                take = min(h, n - h)
                np.matmul(floats[:, :take], powers[m],
                          out=floats[:, h:h + take])
                h, m = h + take, m + 1
            state = floats[:, n - 1:n].copy()
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
