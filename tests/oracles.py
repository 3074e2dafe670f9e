"""Independent reference implementations used only by the tests.

Nothing here shares code with the package's evolution or limiting
paths.  The steppers build the full 4d x 4d one-step unitary from its
operator-product definition and multiply state vectors (for d in the
thousands the same matrix can be built as a scipy.sparse one); the limiting
oracle runs the naive O((4d)^2) double loop over eigenvalue pairs with
a pairwise phase test and evaluates each complex exponential directly.
The table writers format one cell at a time, as the package's writers
did before they went column by column.  Slow on purpose; keep d and t
small.
"""

import json
import math

import numpy as np


def _coin_2x2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def _site_blocks(d, block, sparse):
    """I_d (x) block: the same 4x4 block at every site."""
    if sparse:
        from scipy import sparse as sp
        return sp.kron(sp.identity(d), block, format="csr")
    return np.kron(np.eye(d), block)


def _zeros(dim, sparse):
    if sparse:
        from scipy import sparse as sp
        return sp.lil_matrix((dim, dim), dtype=np.complex128)
    return np.zeros((dim, dim), dtype=np.complex128)


def dense_recycled_operator(d, phi, sparse=False):
    """(4d, 4d) one-step unitary: coin swap . shift . block coin.

    sparse=True builds the same matrix in scipy.sparse CSR form.
    """
    theta = np.pi * (1.0 + phi % 8.0) / 4.0
    coin = np.zeros((4, 4), dtype=np.complex128)
    coin[:2, :2] = _coin_2x2(np.pi / 4)
    coin[2:, 2:] = _coin_2x2(theta)
    dim = 4 * d
    coin_full = _site_blocks(d, coin, sparse)
    shift = _zeros(dim, sparse)
    for n in range(d):
        for comp in range(4):
            # component index is 2*c1 + c2; c2 steers the shift
            target = (n - 1) % d if comp % 2 == 0 else (n + 1) % d
            shift[4 * target + comp, 4 * n + comp] = 1.0
    swap = np.zeros((4, 4), dtype=np.complex128)
    for c1 in range(2):
        for c2 in range(2):
            swap[2 * c2 + c1, 2 * c1 + c2] = 1.0
    swap_full = _site_blocks(d, swap, sparse)
    return swap_full @ shift @ coin_full


def dense_memory_operator(d, sparse=False):
    """(4d, 4d) one-step unitary: conditional shift . Hadamard on coin.

    Per-site components are ordered (coin, memory), index 2*c + m.
    The shift moves right when coin and memory disagree, left when
    they agree, writes the direction taken into memory (up = right)
    and leaves the coin untouched.  sparse=True builds the same
    matrix in scipy.sparse CSR form.
    """
    dim = 4 * d
    coin_full = _site_blocks(d, np.kron(_coin_2x2(np.pi / 4), np.eye(2)),
                             sparse)
    shift = _zeros(dim, sparse)
    # (c, m) -> (n offset, c', m'): the four shift rules
    rules = {(0, 0): (-1, 0, 0), (1, 0): (+1, 1, 1),
             (0, 1): (+1, 0, 1), (1, 1): (-1, 1, 0)}
    for n in range(d):
        for (c, m), (off, c2, m2) in rules.items():
            shift[4 * ((n + off) % d) + 2 * c2 + m2, 4 * n + 2 * c + m] = 1.0
    return shift @ coin_full


def dense_evolve(amps, operator, steps):
    """Apply the dense one-step matrix to a (d, 4) table, steps times."""
    v = np.asarray(amps, dtype=np.complex128).reshape(-1)
    for _ in range(steps):
        v = operator @ v
    return v.reshape(-1, 4)


def dense_distribution(amps):
    return np.sum(np.abs(np.asarray(amps)) ** 2, axis=1)


# ---------------------------------------------------------------------------
# Naive spectral route

def _mk(k, d, theta):
    x = np.exp(2j * np.pi * k / d)
    y = np.conj(x)
    c, s = np.cos(theta), np.sin(theta)
    r = 1 / np.sqrt(2)
    return np.array([[x * r, x * r, 0, 0],
                     [0, 0, x * c, x * s],
                     [y * r, -y * r, 0, 0],
                     [0, 0, y * s, -y * c]], dtype=np.complex128)


def _nk(k, d):
    x = np.exp(2j * np.pi * k / d)
    y = np.conj(x)
    r = 1 / np.sqrt(2)
    return np.array([[x, 0, x, 0],
                     [0, y, 0, y],
                     [0, x, 0, -x],
                     [y, 0, -y, 0]], dtype=np.complex128) * r


def _phase_close(la, lb, tol):
    dphi = abs(np.angle(la) - np.angle(lb))
    return min(dphi, 2 * np.pi - dphi) <= tol


def _mgs_orthonormalize(vectors):
    """Modified Gram-Schmidt on the columns, in place."""
    m = vectors.shape[1]
    for i in range(m):
        for j in range(i):
            vectors[:, i] -= (vectors[:, j].conj() @ vectors[:, i]) \
                * vectors[:, j]
        vectors[:, i] /= np.sqrt(np.sum(np.abs(vectors[:, i]) ** 2))
    return vectors


def _eig_orthonormal(mat, tol):
    lams, vecs = np.linalg.eig(mat)
    # greedy pairwise grouping of equal-phase eigenvalues
    groups = []
    for i in range(4):
        for g in groups:
            if _phase_close(lams[i], lams[g[0]], tol):
                g.append(i)
                break
        else:
            groups.append([i])
    for g in groups:
        if len(g) > 1:
            vecs[:, g] = _mgs_orthonormalize(vecs[:, g])
    return lams, vecs


def naive_limiting(d, psi0, phi=None, tol=1e-9):
    """Limiting distribution by the full double loop over (k,j),(m,l).

    phi=None selects the memory-walk blocks.  Start is position 0 with
    coin vector psi0.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    lam = np.empty((d, 4), dtype=np.complex128)
    vec = np.empty((d, 4, 4), dtype=np.complex128)
    for k in range(d):
        if phi is None:
            mat = _nk(k, d)
        else:
            mat = _mk(k, d, np.pi * (1.0 + phi % 8.0) / 4.0)
        lam[k], vec[k] = _eig_orthonormal(mat, tol)
    return naive_limit_of(lam, vec, psi0, tol)


def naive_limit_of(lam, vec, psi0, tol=1e-9):
    """The double loop of naive_limiting on given block eigensystems.

    lam (d, 4) and vec (d, 4, 4), vectors in columns, are the
    eigensystems of the d momentum blocks; they need not come from a
    walk.
    """
    d = len(lam)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    alpha = np.empty((d, 4), dtype=np.complex128)
    for k in range(d):
        for j in range(4):
            alpha[k, j] = vec[k][:, j].conj() @ psi0
    pbar = np.zeros(d, dtype=np.complex128)
    for k in range(d):
        for j in range(4):
            for m in range(d):
                for el in range(4):
                    if not _phase_close(lam[k, j], lam[m, el], tol):
                        continue
                    ov = vec[k][:, j].conj() @ vec[m][:, el]
                    coef = np.conj(alpha[k, j]) * alpha[m, el] * ov
                    for n in range(d):
                        pbar[n] += coef * np.exp(2j * np.pi * n * (m - k) / d)
    pbar /= d * d
    assert np.abs(pbar.imag).max() < 1e-8
    return np.clip(pbar.real, 0.0, None)


def _clean_cell(value):
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _csv_cell(value):
    value = _clean_cell(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv_per_cell(table, name, version):
    """CSV text of an output.Table, one cell at a time (header included)."""
    lines = ["# %s %s schema=%s" % (name, version, table.schema),
             "# config=%s" % json.dumps(table.config, sort_keys=True,
                                        separators=(",", ":"))]
    for key in sorted(table.meta):
        lines.append("# %s=%s" % (key, _csv_cell(table.meta[key])))
    lines.append(",".join(_csv_cell(c) for c in table.columns))
    for row in zip(*table.data):
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json_per_cell(table, name, version):
    """JSON text of an output.Table, one cell at a time."""
    doc = {"tool": name, "version": version, "schema": table.schema,
           "config": table.config, "meta": table.meta,
           "columns": list(table.columns),
           "rows": [[_clean_cell(v) for v in row]
                    for row in zip(*table.data)]}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      indent=1, allow_nan=False) + "\n"
