"""Problem catalogue and trajectory dataset generation.

Six problems ship, each with a "desk" preset sized for a laptop run and a
"paper" preset at publication scale.  Every sample is a short trajectory
of equidistant snapshots whose flagged channels conserve their spatial
integral; generation ends with an automatic conservation audit so a bad
solver configuration cannot silently produce non-conserving data.

Every problem takes one path: draw, solve, audit.  Each initial state of
a split is drawn first, one sample at a time with its own seed, as a plain
array on the problem's grid.  The split then goes to its solver as one
stacked (samples, ...) array with the grid, in one batched call, and a
solver abort names the sample of the split at fault.  The solver's frames
become the dataset's (samples, frames, 1, ...) ``data``; for water that is
the depth channel of the full-state frames.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from .correction import ConservationMask
from .grid import Boundary, GridSpec, Precision
from .initial_conditions import chebyshev_ic, grf_ic
from .solvers import (
    SolverError,
    dam_break_state,
    solve_allen_cahn,
    solve_convdiff_exact,
    solve_diffusion_exact,
    solve_heat_neumann,
    solve_shallow_water,
)

__all__ = [
    "Problem",
    "ProblemParams",
    "DatasetConfig",
    "TrajectoryDataset",
    "desk_config",
    "paper_config",
    "generate_dataset",
]

GENERATOR_VERSION = "1"

# Maximum allowed |E(t) - E(0)| / |E(0)| over any generated sample.
DRIFT_TOLERANCE = 1e-10


class Problem(enum.Enum):
    AC_DW = "ac_dw"
    AC_FH = "ac_fh"
    HEAT = "heat"
    WATER = "water"
    DIFF = "diff"
    CD = "cd"


# Samples whose initial conserved integral is closer to zero than this are
# redrawn (bounded retries): the relative conservation metric divides by
# the integral, and the generated data should keep it meaningfully sized.
# The diff mean is ``ic_offset`` itself, checked once in ProblemParams.
_MEAN_FLOORS = {Problem.AC_DW: 0.05, Problem.AC_FH: 0.01, Problem.HEAT: 0.05, Problem.DIFF: 0.05, Problem.CD: 0.05}
_MAX_REDRAWS = 64


@dataclass(frozen=True)
class ProblemParams:
    """Physical and discretization parameters of one problem instance."""

    problem: Problem
    resolution: int
    t_final: float
    n_steps: int
    n_snapshots: int = 20
    length: float = 1.0
    epsilon: float = 0.01
    theta: float = 0.8
    theta_c: float = 1.6
    d_coeff: float = 0.01
    velocity: tuple[float, float] = (1.0, 0.5)
    g_r: float = 1.0
    grf_tau: float = 5.0
    grf_alpha: float = 2.0
    ic_offset: float = 1.0
    cheb_order: int = 20

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        for name in ("t_final", "length", "epsilon", "theta", "theta_c", "d_coeff", "g_r",
                     "grf_tau", "grf_alpha", "ic_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_final <= 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.n_snapshots < 2:
            raise ValueError(f"need at least 2 snapshots, got {self.n_snapshots}")
        if self.n_steps < 1 or self.n_steps % self.n_snapshots != 0:
            raise ValueError(f"n_steps must be a positive multiple of n_snapshots {self.n_snapshots}, "
                             f"so the snapshots divide the time axis evenly; got {self.n_steps} steps")
        for name in ("epsilon", "g_r"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        v = self.velocity
        if not (isinstance(v, (tuple, list)) and len(v) == 2
                and all(isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x) for x in v)):
            raise ValueError(f"velocity must be two finite numbers, got {v!r}")
        floor = _MEAN_FLOORS[Problem.DIFF]
        if self.problem is Problem.DIFF and not abs(self.ic_offset) >= floor:
            raise ValueError(f"ic_offset must be at least {floor} in magnitude, got {self.ic_offset}")

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def snapshot_stride(self) -> int:
        return self.n_steps // self.n_snapshots

    @property
    def frame_dt(self) -> float:
        return self.dt * self.snapshot_stride

    def frame_times(self) -> np.ndarray:
        """Snapshot times: n_snapshots frames starting at t=0."""
        return np.arange(self.n_snapshots) * self.frame_dt

    def grid(self) -> GridSpec:
        boundary = {
            Problem.HEAT: Boundary.NEUMANN,
            Problem.WATER: Boundary.WALL,
        }.get(self.problem, Boundary.PERIODIC)
        return GridSpec.square(self.resolution, self.length, boundary)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["problem"] = self.problem.value
        d["velocity"] = list(self.velocity)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemParams":
        d = dict(d)
        d["problem"] = Problem(d["problem"])
        d["velocity"] = tuple(d["velocity"])
        return cls(**d)


SPLIT_IDS = {"train": 0, "valid": 1, "test": 2}


@dataclass(frozen=True)
class DatasetConfig:
    params: ProblemParams
    n_samples: int
    master_seed: int = 0
    split: str = "train"
    precision: Precision = Precision.F64

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError(f"need at least one sample, got {self.n_samples}")
        if not 0 <= self.master_seed < 2**63:
            raise ValueError(f"master_seed must lie in [0, 2**63), got {self.master_seed}")
        if self.split not in SPLIT_IDS:
            raise ValueError(f"split must be one of {list(SPLIT_IDS)}, got {self.split!r}")


@dataclass
class TrajectoryDataset:
    """Generated trajectories plus everything needed to reproduce them.

    ``data`` has shape (samples, snapshots, channels, *spatial), float64.
    """

    problem: Problem
    grid: GridSpec
    data: np.ndarray
    mask: ConservationMask
    params: dict
    sample_seeds: list[list[int]]
    master_seed: int
    split: str
    frame_times: np.ndarray
    precision: Precision = Precision.F64
    tolerances: dict = field(default_factory=dict)
    generator_version: str = GENERATOR_VERSION

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def conservation_drift(self) -> np.ndarray:
        """max_t |E(t) - E(0)| / |E(0)| per sample and masked channel."""
        spatial = tuple(range(3, self.data.ndim))
        integral = self.data.mean(axis=spatial)  # (samples, frames, channels)
        masked = self.mask.indices()
        e0 = integral[:, :1, masked]
        drift = np.abs(integral[:, :, masked] - e0) / np.abs(e0)
        return drift.max(axis=1)


# -- presets ---------------------------------------------------------------

_DESK = {
    Problem.AC_DW: dict(resolution=32, t_final=0.1, n_steps=1000),
    Problem.AC_FH: dict(resolution=32, t_final=0.1, n_steps=1000),
    Problem.HEAT: dict(resolution=32, t_final=1.0, n_steps=1000),
    Problem.WATER: dict(resolution=32, t_final=0.3, n_steps=60),
    Problem.DIFF: dict(resolution=32, t_final=1.0, n_steps=1000),
    Problem.CD: dict(resolution=32, t_final=0.1, n_steps=1000),
}

_PAPER = {
    Problem.AC_DW: dict(resolution=128, t_final=0.1, n_steps=1000),
    Problem.AC_FH: dict(resolution=64, t_final=0.1, n_steps=1000),
    Problem.HEAT: dict(resolution=128, t_final=1.0, n_steps=1000),
    Problem.WATER: dict(resolution=128, t_final=0.3, n_steps=240),
    Problem.DIFF: dict(resolution=100, t_final=1.0, n_steps=1000),
    Problem.CD: dict(resolution=128, t_final=0.1, n_steps=1000),
}

DESK_SPLIT_SIZES = {"train": 50, "valid": 10, "test": 10}
PAPER_SPLIT_SIZES = {"train": 500, "valid": 100, "test": 100}


def desk_config(problem: Problem, split: str) -> DatasetConfig:
    """The desk preset of one split: its parameters and its sample count, master seed 0."""
    params = ProblemParams(problem=problem, **_DESK[problem])
    return DatasetConfig(params=params, n_samples=DESK_SPLIT_SIZES[split], split=split)


def paper_config(problem: Problem, split: str) -> DatasetConfig:
    """The paper preset of one split: its parameters and its sample count, master seed 0."""
    params = ProblemParams(problem=problem, **_PAPER[problem])
    return DatasetConfig(params=params, n_samples=PAPER_SPLIT_SIZES[split], split=split)


# -- generation ------------------------------------------------------------

def _sample_seed(config: DatasetConfig, index: int, attempt: int) -> list[int]:
    return [config.master_seed, SPLIT_IDS[config.split], index, attempt]


def _draw_ic(params: ProblemParams, grid: GridSpec, seed: list[int]) -> np.ndarray:
    p = params.problem
    if p is Problem.WATER:
        rng = np.random.default_rng(seed)
        center = tuple(rng.uniform(0.3, 0.7, 2) * params.length)
        radius = rng.uniform(0.15, 0.25) * params.length
        return dam_break_state(grid, center=center, radius=radius, h_inner=rng.uniform(1.5, 2.5))
    if p is Problem.DIFF:
        u = grf_ic(seed, grid, params.grf_tau, params.grf_alpha)
        return u - u.mean() + params.ic_offset
    u = chebyshev_ic(seed, grid, params.cheb_order)
    if p is Problem.AC_FH:
        u = 0.9 * u / np.abs(u).max()
    return u


def _accept_ic(params: ProblemParams, u: np.ndarray) -> bool:
    floor = _MEAN_FLOORS.get(params.problem)
    return floor is None or abs(float(u.mean())) >= floor


def _draw_accepted_ic(config: DatasetConfig, grid: GridSpec, index: int) -> tuple[list[int], np.ndarray]:
    """The seed and initial state of one sample, redrawn until it clears the mean floor."""
    for attempt in range(_MAX_REDRAWS):
        seed = _sample_seed(config, index, attempt)
        u0 = _draw_ic(config.params, grid, seed)
        if _accept_ic(config.params, u0):
            return seed, u0
    raise SolverError("could not draw an acceptable initial state", sample=index)


def _trajectories(params: ProblemParams, grid: GridSpec, ics: np.ndarray) -> np.ndarray:
    """Frames (samples, snapshots, 1, *spatial) of the stacked initial states, one solver call."""
    p, stride = params.problem, params.snapshot_stride
    times, n_steps = params.frame_times(), (params.n_snapshots - 1) * stride
    if p is Problem.WATER:  # the depth channel of the full-state frames
        return solve_shallow_water(ics, grid, params.g_r, params.dt, n_steps, snapshot_stride=stride)[:, :, :1]
    if p is Problem.HEAT:
        frames = solve_heat_neumann(ics, grid, params.d_coeff, times)
    elif p is Problem.DIFF:
        frames = solve_diffusion_exact(ics, grid, params.d_coeff, times)
    elif p is Problem.CD:
        frames = solve_convdiff_exact(ics, grid, params.d_coeff, params.velocity, times)
    else:
        potential = "fh" if p is Problem.AC_FH else "dw"
        frames = solve_allen_cahn(ics, grid, params.epsilon, potential, params.dt, n_steps,
                                  theta=params.theta, theta_c=params.theta_c, snapshot_stride=stride)
    return frames[:, :, None]


def generate_dataset(config: DatasetConfig) -> TrajectoryDataset:
    """Generate all samples for one split, deterministically from the seed.

    Initial states whose conserved integral sits below the per-problem
    floor are redrawn with a fresh attempt index so the relative
    conservation metric stays well conditioned.  The split is then solved
    in one batched call.  Every sample is audited for integral drift
    before the dataset is returned.
    """
    params = config.params
    grid = params.grid()
    seeds, ics = zip(*(_draw_accepted_ic(config, grid, i) for i in range(config.n_samples)))
    ics = np.stack(ics)  # frees the per-sample states before the solve
    dataset = TrajectoryDataset(
        problem=params.problem,
        grid=grid,
        data=np.ascontiguousarray(_trajectories(params, grid, ics)),
        mask=ConservationMask.all_channels(1),
        params=params.to_dict(),
        sample_seeds=list(seeds),
        master_seed=config.master_seed,
        split=config.split,
        frame_times=params.frame_times(),
        precision=config.precision,
        tolerances={"conservation_drift": DRIFT_TOLERANCE},
    )
    drift = dataset.conservation_drift()
    worst = float(drift.max())
    if not math.isfinite(worst) or worst > DRIFT_TOLERANCE:
        raise SolverError(
            f"conservation audit failed for {params.problem.value}: worst relative drift {worst:.3e}"
        )
    dataset.tolerances["audit_worst_drift"] = worst
    return dataset
