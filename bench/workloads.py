"""The benchmark's workloads: the argv lists one closed-loop client sends to
``tricarl.cli.main``, with the parameters of every row they produce, so the
reference checks can recompute each row without the program.

- population_scan: the population and squeezing presets fig3-fig6, tau and
  delta sweeps of n1, xi12 and xi13; covariance and observables, no
  separability.
- entanglement_scan: one coarse tau sweep per distinct loss-ladder curve of
  fig7-fig15, asking for every separability output; separability dominates.
- edge_points: point reports with the moment-ODE oracle on a detuning ladder
  closing in on the gain threshold delta* from both sides, where two cubic
  roots merge, plus generic lossy points drawn from the seed.  This is where
  the RK4 oracle and the degenerate-spectrum routing run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Gain threshold of rho=100, gamma=kappa=0: two cubic roots merge here.
DELTA_STAR = 1.8899212590353163
EDGE_TAU = 5.0
EDGE_OFFSETS = (0.0,) + tuple(s * 10.0**-k for k in range(1, 14) for s in (1.0, -1.0))
EDGE_GENERIC_POINTS = 8

ENTANGLEMENT_OUTPUTS = (
    "mineig_gamma1,mineig_gamma2,mineig_gamma3,mineig_s12,mineig_s13,mineig_s23,class"
)
ENTANGLEMENT_GRID = "tau:0:5:6"
ENTANGLEMENT_PRESETS = tuple(f"fig{k}" for k in range(7, 16))

POPULATION_PRESETS = ("fig3", "fig4", "fig5", "fig6")
WORKLOADS = ("population_scan", "entanglement_scan", "edge_points")

_PARAM_NAMES = ("rho", "delta", "gamma1", "gamma2", "kappa")


@dataclass(frozen=True)
class Curve:
    """Where the rows of one curve come from: fixed parameters, the swept
    axis (None for a point report) and the fixed evolution time."""

    params: dict
    axis: str | None
    tau: float | None

    def row_point(self, value: float) -> tuple[dict, float]:
        """Parameters and evolution time of the row at grid value ``value``
        (the workloads sweep only tau and delta)."""
        if self.axis == "tau":
            return self.params, value
        return {**self.params, self.axis: value}, self.tau


@dataclass(frozen=True)
class Request:
    """One ``main`` call: its argv, the rows it must return and the curves
    they belong to, keyed by the ``curve`` column ("" when there is none)."""

    argv: tuple[str, ...]
    rows: int
    curves: dict


def _param_flags(params: dict) -> tuple[str, ...]:
    return tuple(x for name in _PARAM_NAMES for x in (f"--{name}", repr(float(params[name]))))


def _preset_requests(preset_ids, figure_preset) -> list[Request]:
    requests = []
    for pid in preset_ids:
        preset = figure_preset(pid)
        curves = {
            label: Curve(spec.fixed.to_dict(), spec.axis, spec.tau)
            for label, spec in preset.curves
        }
        rows = sum(spec.points for _, spec in preset.curves)
        requests.append(Request(("--preset", pid), rows, curves))
    return requests


def _entanglement_requests(figure_preset) -> list[Request]:
    ladder = {}
    for pid in ENTANGLEMENT_PRESETS:
        for _, spec in figure_preset(pid).curves:
            params = spec.fixed.to_dict()
            ladder.setdefault(tuple(params.values()), params)
    points = int(ENTANGLEMENT_GRID.rsplit(":", 1)[1])
    return [
        Request(
            _param_flags(params)
            + ("--sweep", ENTANGLEMENT_GRID, "--outputs", ENTANGLEMENT_OUTPUTS),
            points,
            {"": Curve(params, "tau", None)},
        )
        for params in ladder.values()
    ]


def _point_request(params: dict) -> Request:
    argv = _param_flags(params) + ("--tau", repr(EDGE_TAU), "--oracle")
    return Request(argv, 1, {"": Curve(params, None, EDGE_TAU)})


def _edge_requests(rng: random.Random) -> list[Request]:
    ladder = [
        {"rho": 100.0, "delta": DELTA_STAR + offset, "gamma1": 0.0, "gamma2": 0.0, "kappa": 0.0}
        for offset in EDGE_OFFSETS
    ]
    # Generic points stay near the threshold detuning and the semi-classical
    # coupling, so their oracle step count (and cost) matches the ladder's and
    # the seed moves the inputs without moving the latency distribution.
    generic = [
        {
            "rho": 10.0 ** rng.uniform(math.log10(50.0), math.log10(200.0)),
            "delta": rng.uniform(1.5, 2.3),
            "gamma1": rng.uniform(0.05, 0.5),
            "gamma2": rng.uniform(0.05, 0.5),
            "kappa": rng.uniform(0.05, 0.5),
        }
        for _ in range(EDGE_GENERIC_POINTS)
    ]
    return [_point_request(p) for p in ladder + generic]


def build(workload: str, rng: random.Random) -> list[Request]:
    """Distinct requests of a workload; the first is its set-up probe."""
    from tricarl.sweep import figure_preset

    if workload == "population_scan":
        return _preset_requests(POPULATION_PRESETS, figure_preset)
    if workload == "entanglement_scan":
        return _entanglement_requests(figure_preset)
    if workload == "edge_points":
        return _edge_requests(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
