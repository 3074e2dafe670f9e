"""Set-up probe: import cyclewalk and make one tiny call into each layer.

``run.py`` times whole fresh processes of this script for ``setup_s``,
so interpreter start-up, imports and first-call costs all count.  The
kernel layer is reached through ``walk.evolve``, its public caller.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import cyclewalk from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cyclewalk
    from cyclewalk import _kernels, analysis, cli, output, spectral, walk  # noqa: F401
    where = Path(cyclewalk.__file__).resolve().parent
    if where != SRC / "cyclewalk":
        raise ImportError("cyclewalk imported from %s, not %s"
                          % (where, SRC / "cyclewalk"))
    return cyclewalk


def main():
    cw = import_package()
    walk = cw.walk
    cfg = walk.CoinConfig(0.5)
    start = walk.WalkState.localized(3, walk.InitialState.named("psi_b"))
    dist = walk.position_distribution(walk.evolve(start, 2, cfg))
    pbar = cw.spectral.limiting_distribution(cfg, 3, walk.named_coin4("psi_b"))
    cw.analysis.total_variation(dist, pbar)
    cw.output.render(cw.output.Table(schema="probe", config={}, columns=("n",),
                                     rows=[(0,)]), "csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cw.cli.main(["evolve", "--d", "3", "--phi", "0.5", "--t", "1"])
    return code


if __name__ == "__main__":
    sys.exit(main())
