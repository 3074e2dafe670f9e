"""Evolution kernels for the cycle walks.

A walk is one real 4x4 unitary U and one 0/1 shift mask Pi, and so
its pair of real shift blocks A+ = Pi U and A- = (1 - Pi) U: one step
of a (d, 4) complex128 amplitude table is

    out[n] = A+ a[n+1] + A- a[n-1]   (indices mod d).

The walk module derives each walk's pair once from (U, Pi), as a spec
(``walk._WalkSpec``) that also holds two derived forms of it; every
kernel takes the spec.  ``_site_step`` is the one step at the sites:
the float view of a row of 4 amplitudes takes A+ and A- as real 8x8
matrices (``spec.floats``).  The Fourier block at momentum k is
M_k = x A+ + conj(x) A-, x = e^{2 pi i k/d}, and ``_momentum_blocks``
alone computes it, from ``spec.terms``, as the real 8x8 B_k that steps
the float view of a row: float(v) @ B_k = float(M_k v).  The power
route and the scan step float views by B_k (``_real_blocks``), and
``_fourier_blocks`` and ``_rep_blocks`` are the complex views that the
spectral module diagonalizes; ``_rep_blocks`` holds only the blocks
that the rest mirror (k <= d/4 on even d, k <= d/2 on odd d,
``_rep_stops``).  The kernels take the spec after the
table and the step count:

    evolve(amps, steps, spec)            -> amps
    sums(amps, horizons, spec)           -> sums
    evolve_accumulate(amps, steps, spec) -> (amps, acc)
    normscan(amps, steps, spec)          -> (amps, drift, norm)

where sums[i, n] is the sum of the position-n probability over steps
t = 0..h-1 for the i-th of the ascending horizons h >= 1, acc[n] the
same sum over t = 1..steps, drift is the largest per-step change of
the state norm and norm is the final state norm.  Inputs are never
mutated.

``evolve`` takes one of two routes, by a fixed rule on (d, steps): it
takes site steps below ``_power_min_steps(d)`` steps, the measured
break-even (3 to 32 steps, growing with d), and otherwise takes all
the steps as one power of the blocks in O(d log t) time and O(d)
memory.  A+ and A- are real, so the walk steps the real and
imaginary parts of the table apart and M_{d-k} = conj(M_k): a real FFT
(k <= d/2) takes the two parts to momentum space as two complex rows
per k, their float views take B_k^t from right-to-left binary
exponentiation (square the power, multiply the state in for each set
bit of t) on the blocks k <= d/2 only, and one inverse real FFT
returns.  ``_squarings`` is the one squaring ladder; from level
``_POLISH_LEVEL`` on it polishes each square back onto the unitary
group, so the norm holds to about 1e-13 at t = 10^6.

Each step moves the walker one site, so after t steps only the sites
within t of the start's support can be occupied: the light cone.  On
the power route with 2t + 1 < d, ``_support_arc`` finds the shortest
circular arc of w sites that holds every nonzero row.  If
L = w + 2t < d, the power runs on the L sites of the arc and t sites
either side, as an L-cycle, and every other site is exactly 0: during
t steps the support never wraps the L-cycle, so there it steps as on
the d-cycle.  When every nonzero row sits an even number of sites
along the arc from its first, the rows of the other parity on that
path are exactly 0 too.  Below the crossover, and for 2t + 1 >= d, no
support is looked for: site steps leave exact zeros anyway, and a cone
of at least d sites covers the cycle.  At d = 4096, t = 400 from one
site the power runs on 801 sites rather than 4096.  The independent
reference for every route is the dense operator of tests/oracles.py.

The stream of states, ``_scan``, serves the per-step readers.  On
cycles up to ``_FOURIER_SCAN_MAX_D`` sites it runs in momentum space:
an orthonormal FFT over sites takes the table there, where one step is
B_k on the float view of the row at each frequency k.  The steps are
taken in chunks of at most ``_SCAN_CHUNK_AMPS`` amplitudes, so memory
does not grow with the step count.  Within a chunk the states
t = 1..L come from log-depth doubling, X <- [X, X B^|X|], with the
powers B^(2^m) from the same ladder, and the last state seeds the
next chunk.  On larger cycles an O(d) site step beats the block
products and the O(d log d) inverse FFT each state would need, so the
stream is site steps, their states copied into chunks.  The scan
takes each momentum chunk back in place (one inverse FFT along the
site axis) and ``_probs`` reduces a chunk to p(n, t): the analysis
module's theorem checks read it.  The norm scan stays in momentum
space, takes each state's norm there (by Parseval) and transforms
only the final state back.

The running sums, ``sums``, take one of two routes, by a fixed rule on
d and the horizons, the last of them T (``_gram_route``).  The Gram
route steps the power route's real rows (``_real_rows``): X_t holds
the 2 x 8h floats of the table's real and imaginary parts at the
h = d//2 + 1 momenta k <= d/2, and X_{t+1} = X_t Q for
Q = blockdiag(B_k).  It doubles their real symmetric (8h, 8h) Gram
G_s = sum_{t<s} X_t^T X_t (^T a transpose): with Q_s = blockdiag(B_k^s)
from the squaring ladder (polish included), G_2s = G_s + Q_s^T G_s Q_s,
and a horizon with several set bits is built from its low bits up,
G_{a + 2^m} = G_{2^m} + Q_{2^m}^T G_a Q_{2^m} for a < 2^m, one
accumulator per pending horizon.  Then p(n) = diag(L C L^T), for C
the coin trace of G, a (2h, 2h) matrix over momenta and (re, im)
parts, and L the orthonormal irfft of one (re, im) row: one einsum per
horizon for the coin traces, then one irfft and one product for all
horizons at once.  That is O(d^2 log T) time and (8h)^2 floats per
Gram, 2.1 MiB at d = 128.  The stream route sums the scan's states,
with cumulative sums only in chunks that hold a horizon: O(d T) time,
O(d) memory.  The Gram route's work is its conjugations Q^T G Q: one
per doubling, bit_length(T) - 1 of them, and one per set bit of each
horizon but its lowest (``_conjugations``).  Timed with numpy on 2
vCPUs (best of 3, alternating, recycled phi = 1.3), a conjugation
costs about as much as d to 1.5 d stream steps at d = 32 to 128 (ms
Gram/stream at d = 128: T = 16384, one horizon, 14 conjugations,
13/82; T = 10000, 17, 18/50; T = 8191, 24, 21/40; T = 4095, 22,
20/20; 15 horizons within 15 below T = 16384, 180 conjugations,
140/81; at d = 64, the same 15 horizons, 29/38; at d = 8, T = 255,
14 conjugations, 0.16/0.13, and T = 256, 8, 0.12/0.13).  So the Gram
route runs when T >= max(256, 2 d c) for c conjugations (the floor is
the Gram route's fixed cost on small cycles), for d up to
``_GRAM_MAX_D`` = 128 and at most bit_length(T) + 1 horizons, which
bounds the Grams held at once; larger cycles stream, so memory never
grows as d^2.  ``evolve_accumulate`` takes its sums from the state
after one step and its final state from ``evolve``.

No eigendecomposition is involved anywhere here, so every kernel stays
independent of the spectral module.
"""

import bisect
import itertools

import numpy as np


def _real_blocks(d, spec, stop=None):
    """The momentum blocks M_k, k < stop (all d), as real 8x8 B_k.

    See _momentum_blocks.
    """
    return _momentum_blocks(np.arange(d if stop is None else stop), d, spec)


def _momentum_blocks(k, d, spec):
    """The blocks M_k of momenta k on d-cycles, as real 8x8 B_k.

    k and d are arrays (or d one cycle length) taken elementwise: block
    i is M_{k_i} on the d_i-cycle.  float(v) @ B_k = float(M_k v) for
    the float view of a row v (module docstring).  M_k = Re(x) S
    + i Im(x) D for S = A+ + A- and D = A+ - A-, so B_k is the (re, im)
    pair of x times the two constant terms of the spec
    (``spec.terms``).  A+ and A- share no nonzero row (the mask gives
    each row of U to one of them), so every entry is one exact product
    and the even rows of B_k, as (re, im) pairs, are M_k^T bit for bit.
    """
    x = np.exp(2j * np.pi * k / d)
    pairs = x.view(np.float64).reshape(-1, 2)
    return (pairs @ spec.terms).reshape(-1, 8, 8)


def _complex_blocks(real):
    """The complex M_k of a stack of real B_k.

    The complex view of their even rows, transposed, as a contiguous
    stack.
    """
    rows = real[:, ::2]
    return np.ascontiguousarray(rows.view(np.complex128).swapaxes(1, 2))


def _fourier_blocks(d, spec, stop=None):
    """The complex blocks M_k = x A+ + conj(x) A-, k < stop (all d).

    np.fft.fft takes a[n+1] to x times the transform of a, so M_k is
    one step of the walk at frequency k.
    """
    return _complex_blocks(_real_blocks(d, spec, stop=stop))


def _rep_stops(ds):
    """How many blocks k = 0, 1, ... of each cycle length d give all d.

    A+ and A- are real, so M_{d-k} = conj(M_k); on an even cycle x
    changes sign when k moves by d/2, so M_{k+d/2} = -M_k and
    M_{d/2-k} = -conj(M_k) too.  The representatives are the blocks
    k <= d/4 of an even d and k <= d/2 of an odd d; returns their
    counts as a list.
    """
    return [d // 2 + 1 if d % 2 else d // 4 + 1 for d in ds]


def _rep_blocks(ds, spec):
    """The complex representative blocks (_rep_stops) of every d of ds.

    One stack, the blocks of each d in turn; those of one d equal
    _fourier_blocks(d, spec, stop=_rep_stops([d])[0]) bit for bit.
    """
    stops = _rep_stops(ds)
    k = np.concatenate([np.arange(s) for s in stops])
    return _complex_blocks(_momentum_blocks(k, np.repeat(ds, stops), spec))


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

    The break-even measured with numpy on 2 vCPUs (site steps against
    the power, timed in alternation): 4 steps at d = 256, 5-6 at 512,
    13-15 at 1024, 26-28 at 2048 and about 30 from 4096 to 10^4, where
    a site step and a squaring both cost O(d).
    """
    return min(32, max(3, d // 75))


def _site_step(a, spec):
    """One step at the sites: out[n] = A+ a[n+1] + A- a[n-1] (mod d).

    The float view of a row of 4 amplitudes takes each shift block as
    its real 8x8 form in spec.floats; a is a (d, 4) complex128 table.
    """
    plus, minus = spec.floats
    out = np.roll(a, -1, axis=0).view(np.float64) @ plus
    out += np.roll(a, 1, axis=0).view(np.float64) @ minus
    return out.view(np.complex128)


def _support_arc(amps):
    """(start, width, even) of the shortest circular arc of nonzero rows.

    The arc holds every nonzero row of a (d, 4) table and runs from row
    start through width rows (mod d); width is 0 for a zero table.
    even is True when every nonzero row sits an even number of rows
    past start along the arc.
    """
    d = amps.shape[0]
    rows = np.flatnonzero(amps.any(axis=1))
    if not rows.size:
        return 0, 0, True
    # The arc leaves out the widest gap between circularly consecutive
    # rows.
    gaps = np.diff(rows, append=rows[0] + d)
    j = int(gaps.argmax())
    start = int(rows[(j + 1) % rows.size])
    return start, d + 1 - int(gaps[j]), not ((rows - start) % d & 1).any()


def evolve(amps, steps, spec):
    """The state after `steps` steps of the walk (module docstring)."""
    d = amps.shape[0]
    if steps < _power_min_steps(d):
        a = amps.copy()
        for _ in range(steps):
            a = _site_step(a, spec)
        return a
    if 2 * steps + 1 < d:
        # The light cone: each step moves the walker one site, so on the
        # arc and `steps` sites either side, taken as a cycle of its own,
        # the support never wraps and the walk is the d-cycle's.
        # _power_min_steps grows with d, so the window's own rule would
        # take the power too.
        start, width, even = _support_arc(amps)
        size = width + 2 * steps
        if size < d:
            sites = np.arange(start - steps, start - steps + size) % d
            window = _power(amps[sites], steps, spec)
            if even:
                # Each step flips the parity of a site on the path.
                window[1::2] = 0
            out = np.zeros_like(amps)
            out[sites] = window
            return out
    return _power(amps, steps, spec)


def _real_rows(amps, spec):
    """The table's real rows in momentum space, and their squaring ladder.

    The pair is real, so it steps the real and imaginary parts of the
    table apart: two real rows per site, whose transforms are fixed by
    k <= d/2 (orthonormal rfft over sites).  Returns their float views,
    an (h, 2, 8) array for h = d//2 + 1, and _squarings of the blocks
    B_k, k < h, that step them.
    """
    d = amps.shape[0]
    parts = np.fft.rfft(np.stack((amps.real, amps.imag), axis=1), axis=0,
                        norm="ortho")
    return (parts.view(np.float64),
            _squarings(_real_blocks(d, spec, stop=d // 2 + 1)))


def _power(amps, steps, spec):
    """evolve's power route on the whole cycle (module docstring)."""
    # Each real row takes B_k^(2^m) for each set bit m of steps.
    state, ladder = _real_rows(amps, spec)
    for power in ladder:
        if steps & 1:
            state = state @ power
        steps >>= 1
        if not steps:
            break
    parts = np.fft.irfft(state.view(np.complex128), n=amps.shape[0],
                         axis=0, norm="ortho")
    return parts[:, 0] + 1j * parts[:, 1]


# Amplitudes held by one chunk of states in the scan, and by the buffer
# of one batch of cluster transforms in the spectral limit (one column
# of d per start state and cluster of more than sqrt(d) eigenvalues; the
# limit sums smaller ones as pairs, and a batch holds at least one
# column, however long); it bounds their memory independently of the
# step count and of the numbers of clusters, caches and states.
_SCAN_CHUNK_AMPS = 1 << 14

# Largest cycle the scan runs in momentum space.  Above it one O(d) site
# step beats the block products (one small matmul per frequency) and the
# O(d log d) inverse FFT that each state then needs.
_FOURIER_SCAN_MAX_D = 352


def _scan_chunk_len(d):
    """Steps per chunk of the scan on a d-cycle.

    Also the columns per batch of the spectral limit's cluster
    transforms (spectral._add_flat_bands).
    """
    return max(1, _SCAN_CHUNK_AMPS // (4 * d))


def _scan(amps, steps, spec, sites=True):
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
        ladder = _squarings(_real_blocks(d, spec))
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
                state = _site_step(state, spec)
                buf[:, i] = state
        yield out


def _states(amps, steps, spec):
    """The states t = 0..steps in (d, n, 4) chunks at the sites."""
    return itertools.chain([amps[:, None, :]], _scan(amps, steps, spec))


def _probs(chunk, keep="nt"):
    """Sums of |a|^2 over a (d, n, 4) chunk; keep names the axes kept.

    "nt" gives p(., t) per state, "n" its sum over states, "t" norms^2.
    """
    # Real and imaginary parts side by side: one pass per state.
    parts = chunk.view(np.float64)
    return np.einsum("ntj,ntj->" + keep, parts, parts)


def _conjugated(power, gram):
    """Q^T G Q for Q = blockdiag(power) and a symmetric (8h, 8h) Gram G.

    Row block k of Q^T G is power[k]^T times row block k of G; G is
    symmetric, so Q^T G Q = Q^T (Q^T G)^T: two batched (h, 8, 8) @
    (h, 8, 8h) products around one transpose.
    """
    n = gram.shape[0]
    turned = power.swapaxes(1, 2)
    rows = turned @ gram.reshape(-1, 8, n)
    rows = rows.reshape(n, n).T.reshape(-1, 8, n)
    return (turned @ rows).reshape(n, n)


def _gram_sums(amps, horizons, spec):
    """sums() by doubling the Gram of the real rows (module docstring)."""
    d = amps.shape[0]
    rows, ladder = _real_rows(amps, spec)
    h = rows.shape[0]
    x = rows.swapaxes(0, 1).reshape(2, 8 * h)
    # A copy for the left factor: numpy hands x.T @ x to BLAS syrk, which
    # took 8 ms at d = 128 for this rank-2 product, and gemm 0.2 ms.
    gram = x.T.copy() @ x
    # traces[i] is the coin trace of G_t, t = horizons[i], as (k, r, k',
    # r') for momenta k and (re, im) parts r; pending[i] holds G_a for
    # the bits of t seen so far.
    traces = np.empty((len(horizons), h, 2, h, 2))
    pending = {}
    for m, power in enumerate(ladder):
        bit = 1 << m
        for i, t in enumerate(horizons):
            if not t & bit:
                continue
            # G_{a + 2^m} = G_{2^m} + Q_{2^m}^T G_a Q_{2^m} for a < 2^m.
            acc = pending.pop(i, None)
            if acc is None:
                acc = gram
            else:
                acc = _conjugated(power, acc)
                acc += gram
            if t < 2 * bit:
                np.einsum("kcrqcs->krqs", acc.reshape(h, 4, 2, h, 4, 2),
                          out=traces[i])
            else:
                pending[i] = acc
        if 2 * bit > horizons[-1]:
            break
        # G_{2^(m+1)} = G_{2^m} + Q_{2^m}^T G_{2^m} Q_{2^m}.
        doubled = _conjugated(power, gram)
        doubled += gram
        gram = doubled
    # p(n) = diag(L C L^T) for a coin trace C and the orthonormal irfft
    # L of one (re, im) row: L^T is the irfft of the unit rows, and
    # C L^T that of the rows of C, read as complex along their last axis
    # (C is symmetric).
    unit = np.fft.irfft(np.eye(2 * h).view(np.complex128), n=d,
                        norm="ortho")
    coins = traces.view(np.complex128).reshape(len(horizons), 2 * h, h)
    waves = np.fft.irfft(coins, n=d, norm="ortho")
    return np.einsum("ibn,bn->in", waves, unit)


def _stream_sums(amps, horizons, spec):
    """sums() from the stream of states t = 0..T-1 (module docstring)."""
    d = amps.shape[0]
    out = np.empty((len(horizons), d))
    acc, done, found = np.zeros(d), 0, 0
    for chunk in _states(amps, horizons[-1] - 1, spec):
        first, done = done, done + chunk.shape[1]
        stop = bisect.bisect_right(horizons, done)
        if stop == found:
            acc += _probs(chunk, "n")
            continue
        # Per-state sums only where a horizon falls in the chunk.
        running = acc[:, None] + np.cumsum(_probs(chunk), axis=1)
        acc = running[:, -1]
        for i in range(found, stop):
            out[i] = running[:, horizons[i] - first - 1]
        found = stop
    return out


# Largest cycle whose running sums may take the Gram route.  A Gram
# holds (8h)^2 floats, h = d//2 + 1, 2.1 MiB at d = 128, so its memory
# stays a fixed constant; larger cycles stream in O(d) memory.
_GRAM_MAX_D = 128


def _conjugations(horizons):
    """The Q^T G Q products _gram_sums takes for these horizons."""
    return (int(horizons[-1]).bit_length() - 1
            + sum(bin(h).count("1") - 1 for h in horizons))


def _gram_route(d, horizons):
    """True when sums() doubles the Gram rather than streaming.

    A conjugation costs d to 1.5 d stream steps (module docstring), so
    the Gram route runs from T = max(256, 2 d c) steps on, for c
    conjugations.  At most bit_length(T) + 1 horizons (the default
    mixing horizons are that many) bound the Grams held at once.
    """
    steps = int(horizons[-1])
    return (d <= _GRAM_MAX_D and len(horizons) <= steps.bit_length() + 1
            and steps >= max(256, 2 * d * _conjugations(horizons)))


def sums(amps, horizons, spec):
    """Sums of p(., t) over t < h for each ascending horizon h >= 1.

    Returns a (len(horizons), d) array; t = 0 is amps itself.
    """
    if _gram_route(amps.shape[0], horizons):
        return _gram_sums(amps, horizons, spec)
    return _stream_sums(amps, horizons, spec)


def evolve_accumulate(amps, steps, spec):
    if not steps:
        return amps.copy(), np.zeros(amps.shape[0])
    # The states t = 1..steps are those t' = 0..steps-1 after one step.
    acc = sums(_site_step(amps, spec), (steps,), spec)[0]
    return evolve(amps, steps, spec), acc


def normscan(amps, steps, spec):
    """Evolve while tracking the norm (module docstring)."""
    prev = float(np.sqrt(np.sum(np.abs(amps) ** 2)))
    drift, chunk = 0.0, amps[:, None, :]
    for chunk in _scan(amps, steps, spec, sites=False):
        # By Parseval a momentum state has its site norm.
        norms = np.sqrt(_probs(chunk, "t"))
        drift = max(drift, abs(float(norms[0]) - prev),
                    float(np.abs(np.diff(norms)).max(initial=0.0)))
        prev = float(norms[-1])
    out = chunk[:, -1]
    if steps and amps.shape[0] <= _FOURIER_SCAN_MAX_D:
        return np.fft.ifft(out, axis=0, norm="ortho"), drift, prev
    return out.copy(), drift, prev
