"""Figure presets: parameter sets for the standard plots, as one data table.

Each preset is one entry of ``PRESETS``, ``id -> (description, curves)``,
with one ``(label, SweepSpec fields)`` pair per plotted curve; the sweep
engine (``sweep.figure_preset``) turns only the requested entry into
validated sweeps.  Detunings, coupling strengths and loss ladders follow
the corresponding figure of the system's standard presentation: gain
curves (fig1, fig2), population and squeezing versus detuning (fig3,
fig4) and versus time (fig5, fig6), three-mode test eigenvalues
(fig7-fig11) and two-mode test eigenvalues (fig12-fig15).  Grid ranges and
the loss ladders of fig7-fig15, which the captions leave unspecified, are
fixed here once and for all so output files stay diffable.
"""

from __future__ import annotations

from .model import ModelParams


def _ladder(gammas=(), kappas=()):
    """(gamma, kappa) pairs: the ideal curve, then a gamma ladder at
    kappa=0, then a kappa ladder at gamma=0."""
    return [(0.0, 0.0)] + [(g, 0.0) for g in gammas] + [(0.0, k) for k in kappas]


def _curves(rho, delta, losses, grid, outputs, tau=None, prefix=""):
    """One labeled curve per (gamma, kappa) pair, on the grid
    ``(axis, start, stop, points)``; gamma sets both atomic rates."""
    axis, start, stop, points = grid
    return [
        (
            f"{prefix}gamma={g:g};kappa={k:g}",
            dict(
                axis=axis,
                start=start,
                stop=stop,
                points=points,
                fixed=ModelParams(rho, delta, gamma1=g, gamma2=g, kappa=k),
                outputs=outputs,
                tau=tau,
            ),
        )
        for g, k in losses
    ]


_GAIN = ("gain",)
_DELTA = ("delta", -5.0, 10.0, 301)
_FIG1A = _curves(100.0, 0.0, _ladder((0.5, 1.0, 2.0)), _DELTA, _GAIN)
_FIG1B = _curves(100.0, 0.0, _ladder(kappas=(1.0, 5.0, 10.0)), _DELTA, _GAIN)
_FIG2A = _curves(
    0.2, 0.0, _ladder((0.2, 0.5, 1.0)), ("delta", 0.0, 10.0, 301), _GAIN, prefix="rho=0.2;"
)
_FIG2B = _curves(
    1.0, 0.0, _ladder(kappas=(0.5, 1.0, 5.0)), ("delta", -3.0, 5.0, 301), _GAIN, prefix="rho=1;"
)
_FIG5_LOSSES = [(0.0, 0.0), (0.2, 0.0), (0.5, 0.5)]
_FIG6_LOSSES = [(0.0, 0.0), (0.15, 0.0), (0.15, 0.15)]
_SEMICLASSICAL = _ladder((0.5, 1.0, 2.0), (1.0, 5.0))
_QUANTUM = _ladder((0.15, 0.5), (0.15, 0.5))

PRESETS: dict[str, tuple[str, list[tuple[str, dict]]]] = {
    "fig1a": ("gain vs delta, rho=100, kappa=0, gamma ladder", _FIG1A),
    "fig1b": ("gain vs delta, rho=100, gamma=0, kappa ladder", _FIG1B),
    "fig1": ("gain vs delta, rho=100, both loss ladders", _FIG1A + _FIG1B[1:]),
    "fig2a": ("gain vs delta, rho=0.2, kappa=0, gamma ladder", _FIG2A),
    "fig2b": ("gain vs delta, rho=1, gamma=0, kappa ladder", _FIG2B),
    "fig2": ("gain vs delta, quantum regime, both panels", _FIG2A + _FIG2B),
    "fig3": (
        "n1 and xi12 vs delta, rho=100, tau=2, kappa=0, gamma in {0,0.5,1}",
        _curves(100.0, 0.0, _ladder((0.5, 1.0)), _DELTA, ("n1", "xi12"), tau=2.0),
    ),
    "fig4": (
        "n1 and xi12 vs delta, rho=100, tau=2, gamma=0, kappa in {0,1,5}",
        _curves(100.0, 0.0, _ladder(kappas=(1.0, 5.0)), _DELTA, ("n1", "xi12"), tau=2.0),
    ),
    "fig5": (
        "n1 and xi12 vs tau, rho=100, delta=3.5, three loss configurations",
        _curves(100.0, 3.5, _FIG5_LOSSES, ("tau", 0.0, 10.0, 201), ("n1", "xi12")),
    ),
    "fig6": (
        "n1 and xi13 vs tau, rho=0.2, delta=5, three loss configurations",
        _curves(0.2, 5.0, _FIG6_LOSSES, ("tau", 0.0, 20.0, 201), ("n1", "xi13")),
    ),
    # test eigenvalues vs tau on the semi-classical (rho=100) and quantum
    # (rho=0.2) loss ladders
    **{
        pid: (
            f"min eig of {test}, rho={rho:g}, delta={delta:g}",
            _curves(rho, delta, losses, ("tau", 0.0, 5.0, 101), (output,)),
        )
        for pid, test, output, rho, delta, losses in (
            ("fig7", "three-mode test 1", "mineig_gamma1", 100.0, 0.01, _SEMICLASSICAL),
            ("fig8", "three-mode test 2", "mineig_gamma2", 100.0, 0.01, _SEMICLASSICAL),
            ("fig9", "three-mode test 3", "mineig_gamma3", 100.0, 0.01, _SEMICLASSICAL),
            ("fig10", "three-mode test 1", "mineig_gamma1", 0.2, 5.0, _QUANTUM),
            ("fig11", "three-mode test 2", "mineig_gamma2", 0.2, 5.0, _QUANTUM),
            ("fig12", "two-mode test s12", "mineig_s12", 100.0, 0.0, _SEMICLASSICAL),
            ("fig13", "two-mode test s13", "mineig_s13", 100.0, 0.0, _SEMICLASSICAL),
            ("fig14", "two-mode test s12", "mineig_s12", 0.2, 5.0, _QUANTUM),
            ("fig15", "two-mode test s13", "mineig_s13", 0.2, 5.0, _QUANTUM),
        )
    },
}
