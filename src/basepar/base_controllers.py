"""Offline-tuned ramp-metering controllers and their horizon extension.

Every base controller is one integral feedback law that nudges the metering
rate proportionally to the gap between a critical density and the measured
density downstream of the ramp (:class:`FeedbackController`); only the
source of its gains differs.  ALINEA keeps them constant.  The implicit
controller asks a tiny feedforward network (4 inputs, one hidden layer of 3
units, 1 output), trained per metered cell, for the gain at every step
(:func:`network_gains`).  Zero gains hold the previous rates, which is how a
standalone online controller is seeded.

Training data for the network is generated by treating each metered cell in
isolation with unrestricted leaving flows and solving, per sampled operating
point, the one-dimensional problem of choosing the gain that drives the
cell's expected density closest to the critical density.  That problem is
piecewise linear and monotone in the gain, so it is solved in closed form;
tests audit it against a brute-force grid search.

A base controller is its gains and a label, and keeps no state: its caller
passes the network and the previous rates in, as to every model call.  To
seed the online optimizers every base is rolled forward on the prediction
model for the largest horizon of its cell, each as one row of one kernel
call (:func:`warm_start_rollout`): constant gains as a gain row,
a gain network as a gain row whose network the kernel evaluates at every
step.  The kernel's gain rows are the one implementation of the law and of
the forward pass; the tests keep scalar copies of both as their reference.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import actm
# ``step`` is not called here; it stays importable from this module because
# perfbench/layers.py wraps it here.
from .actm import (
    ExogenousInput,
    GainNetwork,
    NetworkParams,
    NetworkState,
    step,
)

__all__ = [
    "MlpParams",
    "mlp_forward",
    "save_mlp_params",
    "load_mlp_params",
    "GenerationRanges",
    "TrainingSample",
    "optimal_gain_for_sample",
    "generate_training_data",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "train_mlp",
    "FeedbackController",
    "network_gains",
    "WarmStart",
    "warm_start_rollout",
]


# ---------------------------------------------------------------------------
# Gain-emitting network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpParams:
    """Weights of a 4-3-1 feedforward net plus its input scaling.

    Weights are stored row-major (``hidden_weights[j][k]`` connects input k
    to hidden unit j).  Inputs are scaled to [0, 1] by the recorded
    generation-range bounds before the forward pass; the hidden units are
    tanh and the output is linear.
    """

    hidden_weights: tuple[tuple[float, ...], ...]  # 3 x 4
    hidden_bias: tuple[float, ...]                 # 3
    output_weights: tuple[float, ...]              # 3
    output_bias: float
    input_lo: tuple[float, ...]                    # 4, per-feature scaling offsets
    input_hi: tuple[float, ...]                    # 4

    def __post_init__(self) -> None:
        if len(self.hidden_weights) != 3 or any(len(r) != 4 for r in self.hidden_weights):
            raise ValueError("hidden layer must be exactly 3x4")
        if len(self.hidden_bias) != 3 or len(self.output_weights) != 3:
            raise ValueError("hidden bias and output weights must have 3 entries")
        if len(self.input_lo) != 4 or len(self.input_hi) != 4:
            raise ValueError("input scaling needs 4 entries")
        for lo, hi in zip(self.input_lo, self.input_hi):
            span = hi - lo
            if not math.isfinite(span) or span == 0.0:
                raise ValueError("input scaling spans must be finite and nonzero")


def mlp_forward(params: MlpParams, inputs: Sequence[float]) -> float:
    """The kernel's forward pass on one input; rejects non-finite inputs."""
    if len(inputs) != 4:
        raise ValueError("expected 4 inputs")
    return actm._forward(actm._unpack(params), *inputs)


def save_mlp_params(path, nets: dict[int, MlpParams]) -> None:
    """Write the per-metered-cell network parameters as structured JSON.

    Cell keys are 1-based cell numbers.  The format is documented in the
    repository README and covered by a round-trip test.
    """
    payload = {
        "schema": "gain-net/1",
        "layout": "row-major",
        "shape": [4, 3, 1],
        "cells": {
            str(cell): {
                "activation": "tanh",
                "hidden_weights": [list(r) for r in p.hidden_weights],
                "hidden_bias": list(p.hidden_bias),
                "output_weights": list(p.output_weights),
                "output_bias": p.output_bias,
                "input_scale_lo": list(p.input_lo),
                "input_scale_hi": list(p.input_hi),
            }
            for cell, p in nets.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# a parameter file's fields of one cell, in :class:`MlpParams` order, with
# how deeply each nests lists of numbers
_MLP_FIELDS = {"hidden_weights": 2, "hidden_bias": 1, "output_weights": 1,
               "output_bias": 0, "input_scale_lo": 1, "input_scale_hi": 1}


def _numbers(value, depth: int, where: str):
    """``value``, lists nested ``depth`` deep of finite numbers (not
    booleans), as tuples of floats."""
    if depth and isinstance(value, list):
        return tuple(_numbers(v, depth - 1, where) for v in value)
    if not depth and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{where} must be {'a list' if depth else 'a finite number'}, got {value!r}")


def load_mlp_params(path) -> dict[int, MlpParams]:
    """The networks :func:`save_mlp_params` wrote; a malformed file raises
    ``ValueError`` naming the cell and the field at fault."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("parameter file must hold a JSON object")
    if payload.get("schema") != "gain-net/1":
        raise ValueError(f"unsupported parameter file schema: {payload.get('schema')!r}")
    if payload.get("shape") != [4, 3, 1]:
        raise ValueError(f"unsupported network shape: {payload.get('shape')!r}")
    if not isinstance(payload.get("cells"), dict):
        raise ValueError(f"field 'cells' must be a mapping, got {payload.get('cells')!r}")
    nets = {}
    for cell, p in payload["cells"].items():
        if not isinstance(p, dict):
            raise ValueError(f"cell {cell} must be a mapping, got {p!r}")
        if p.get("activation") != "tanh":
            raise ValueError(f"unsupported activation in cell {cell}: {p.get('activation')!r}")
        for key in _MLP_FIELDS:
            if key not in p:
                raise ValueError(f"cell {cell}: missing field '{key}'")
        try:
            nets[int(cell)] = MlpParams(*(_numbers(p[key], depth, f"field '{key}'")
                                          for key, depth in _MLP_FIELDS.items()))
        except ValueError as exc:
            raise ValueError(f"cell {cell}: {exc}") from None
    return nets


# ---------------------------------------------------------------------------
# Training-data generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerationRanges:
    """Sampling ranges for the isolated-cell operating points."""

    n: tuple[float, float] = (0.0, 80.0)        # vehicles in the cell
    q: tuple[float, float] = (0.0, 30.0)        # queued vehicles
    d: tuple[float, float] = (0.0, 4.0)         # ramp demand, veh/cycle
    o_prev: tuple[float, float] = (0.0, 8.0)    # upstream mainline inflow, veh/cycle
    theta_max: float = 1.0                      # gain search bound

    def as_bounds(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        los = (self.n[0], self.q[0], self.d[0], self.o_prev[0])
        his = (self.n[1], self.q[1], self.d[1], self.o_prev[1])
        return los, his


@dataclass(frozen=True)
class TrainingSample:
    """One isolated-cell operating point with its optimal gain."""

    n: float
    q: float
    d: float
    o_prev: float
    theta: float

    @property
    def inputs(self) -> tuple[float, float, float, float]:
        return (self.n, self.q, self.d, self.o_prev)


def optimal_gain_for_sample(
    params: NetworkParams,
    cell_index: int,
    n: float,
    q: float,
    d: float,
    o_prev: float,
    theta_max: float = 1.0,
) -> tuple[float, bool]:
    """Gain that drives the isolated cell's expected next density closest to
    the critical density.

    The cell is treated with unrestricted leaving flows, the ramp inflow uses
    the metered admission rule and the metering rate follows the feedback law
    with a zero previous rate, so the admitted inflow is
    ``min(q + d, xi * (nbar - n), max(theta * (rho_crit - rho), 0))``.  The
    expected count is affine and nondecreasing in the admitted inflow, which
    makes the error piecewise linear in the gain; the minimizer is computed
    directly, breaking ties toward the smallest gain.  Returns the gain and a
    flag marking residual density error (target unattainable inside the
    bounds).
    """
    cell = params.cells[cell_index]
    lanes_len = cell.length * params.lanes
    rho = n / lanes_len
    delta = params.rho_crit - rho
    cap = max(min(q + d, cell.xi * (cell.capacity_nbar - n)), 0.0)
    b = 1.0 - cell.blend_alpha * cell.eta_moving
    target = params.rho_crit * lanes_len
    base_count = n * (1.0 - cell.eta_moving) + o_prev
    e_needed = (target - base_count) / b

    if delta <= 0.0 or cap == 0.0:
        e_star = 0.0
        theta = 0.0
    else:
        e_star = min(max(e_needed, 0.0), cap, theta_max * delta)
        theta = e_star / delta
    residual = abs(base_count + b * e_star - target)
    return theta, residual > 1e-12


def generate_training_data(
    params: NetworkParams,
    cell_index: int,
    count: int = 500,
    ranges: GenerationRanges = GenerationRanges(),
    rng: Optional[np.random.Generator] = None,
) -> list[TrainingSample]:
    """Sample ``count`` operating points uniformly over the generation ranges
    and attach the closed-form optimal gain to each."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if cell_index not in params.metered_cells:
        raise ValueError(f"cell {cell_index} is not metered")
    rng = rng if rng is not None else np.random.default_rng()
    los, his = ranges.as_bounds()
    samples = []
    for _ in range(count):
        u = rng.uniform(los, his)
        theta, _ = optimal_gain_for_sample(
            params, cell_index, u[0], u[1], u[2], u[3], ranges.theta_max
        )
        samples.append(TrainingSample(n=float(u[0]), q=float(u[1]), d=float(u[2]),
                                      o_prev=float(u[3]), theta=theta))
    return samples


# ---------------------------------------------------------------------------
# Network training
# ---------------------------------------------------------------------------

class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4000
    learning_rate: float = 0.5
    restarts: int = 10
    seed: int = 0
    validation_count: int = 100


@dataclass(frozen=True)
class TrainResult:
    params: MlpParams
    train_loss: tuple[float, ...]   # per accepted epoch, non-increasing
    validation_rmse: float


def _net_loss_and_grad(w1, b1, w2, b2, xs, ts):
    pre = xs @ w1.T + b1
    h = np.tanh(pre)
    pred = h @ w2 + b2
    err = pred - ts
    loss = float(np.mean(err**2))
    m = len(ts)
    dpred = 2.0 * err / m
    gw2 = h.T @ dpred
    gb2 = float(np.sum(dpred))
    dh = np.outer(dpred, w2) * (1.0 - h**2)
    gw1 = dh.T @ xs
    gb1 = dh.sum(axis=0)
    return loss, (gw1, gb1, gw2, gb2)


def _solve_output_layer(w1, b1, xs, ts):
    """Exact least-squares fit of the linear output layer for fixed hidden
    units.  Minimizes the same loss over a parameter subset, so accepting the
    result can never increase the training loss."""
    h = np.tanh(xs @ w1.T + b1)
    a = np.hstack([h, np.ones((len(xs), 1))])
    try:
        sol, *_ = np.linalg.lstsq(a, ts, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise TrainingDivergedError(f"output-layer solve failed: {exc}") from exc
    return sol[:3], float(sol[3])


_OUTPUT_RESOLVE_EVERY = 200  # epochs between exact refits of the output layer


def _train_once(xs, ts, cfg: TrainConfig, rng: np.random.Generator):
    # Stump-style init: each hidden unit starts as a steep detector on one
    # randomly chosen input coordinate, centered on a random training point
    # (plus mild off-axis noise so mixed features can still develop).  The
    # sampled-target functions are dominated by sharp threshold behaviour,
    # which plain small-weight inits sharpen far too slowly.
    coords = rng.integers(0, xs.shape[1], size=3)
    steep = np.exp(rng.uniform(np.log(8.0), np.log(64.0), size=3))
    signs = rng.choice((-1.0, 1.0), size=3)
    w1 = rng.normal(scale=0.5, size=(3, xs.shape[1]))
    for j in range(3):
        w1[j, coords[j]] = signs[j] * steep[j]
    centers = xs[rng.integers(0, len(xs), size=3)]
    b1 = -np.sum(w1 * centers, axis=1)
    w2, b2 = _solve_output_layer(w1, b1, xs, ts)

    lr = cfg.learning_rate
    loss, grads = _net_loss_and_grad(w1, b1, w2, b2, xs, ts)
    history = [loss]
    for epoch in range(cfg.epochs):
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss {loss} at epoch {epoch}")
        if epoch and epoch % _OUTPUT_RESOLVE_EVERY == 0:
            w2c, b2c = _solve_output_layer(w1, b1, xs, ts)
            new_loss, new_grads = _net_loss_and_grad(w1, b1, w2c, b2c, xs, ts)
            if math.isfinite(new_loss) and new_loss <= loss:
                w2, b2, loss, grads = w2c, b2c, new_loss, new_grads
        gw1, gb1, gw2, gb2 = grads
        accepted = False
        while lr >= 1e-12:
            cand = (w1 - lr * gw1, b1 - lr * gb1, w2 - lr * gw2, b2 - lr * gb2)
            new_loss, new_grads = _net_loss_and_grad(*cand, xs, ts)
            if math.isfinite(new_loss) and new_loss <= loss:
                w1, b1, w2, b2 = cand
                loss, grads = new_loss, new_grads
                lr = min(lr * 1.2, 50.0)
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            break
        history.append(loss)
    return (w1, b1, w2, b2), history


def train_mlp(
    samples: Sequence[TrainingSample],
    ranges: GenerationRanges,
    config: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Fit the 4-3-1 gain network by full-batch gradient descent.

    The step size backtracks until each epoch decreases the loss, so the
    recorded training loss is non-increasing.  The sample set is shuffled
    deterministically from the config seed and split into training and
    validation parts (``validation_count`` held out); several restarts are
    trained and the one with the lowest validation RMSE is kept.  Targets are
    standardized internally and the scaling is folded back into the output
    layer, so the returned parameters predict in gain units directly.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    if not 0 < config.validation_count < len(samples):
        raise ValueError("validation_count must leave at least one training sample")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(samples))
    split = len(samples) - config.validation_count
    train_idx, val_idx = order[:split], order[split:]

    los, his = ranges.as_bounds()
    lo = np.asarray(los, dtype=float)
    span = np.asarray(his, dtype=float) - lo
    raw = np.asarray([s.inputs for s in samples], dtype=float)
    targets = np.asarray([s.theta for s in samples], dtype=float)
    xs = (raw - lo) / span

    t_mean = float(np.mean(targets[train_idx]))
    t_std = max(float(np.std(targets[train_idx])), 1e-9)
    ts = (targets - t_mean) / t_std

    best = None
    for _ in range(max(config.restarts, 1)):
        weights, history = _train_once(xs[train_idx], ts[train_idx], config, rng)
        w1, b1, w2, b2 = weights
        val_pred = np.tanh(xs[val_idx] @ w1.T + b1) @ w2 + b2
        rmse = float(np.sqrt(np.mean((val_pred * t_std + t_mean - targets[val_idx]) ** 2)))
        if best is None or rmse < best[0]:
            best = (rmse, weights, history)

    rmse, (w1, b1, w2, b2), history = best
    params = MlpParams(
        hidden_weights=tuple(tuple(float(v) for v in row) for row in w1),
        hidden_bias=tuple(float(v) for v in b1),
        output_weights=tuple(float(v * t_std) for v in w2),
        output_bias=float(b2 * t_std + t_mean),
        input_lo=tuple(float(v) for v in lo),
        input_hi=tuple(float(v) for v in (lo + span)),
    )
    return TrainResult(params=params, train_loss=tuple(history), validation_rmse=rmse)


# ---------------------------------------------------------------------------
# Base-controller objects and their warm starts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedbackController:
    """Feedback metering ``mu = max(mu_prev + theta * (rho_crit - rho), 0)``
    with the gains ``theta``, one per metered ramp: constant for ALINEA,
    zero to hold the previous rates, or a :class:`~basepar.actm.GainNetwork`
    evaluated at every step for the implicit controller.  A base is its
    gains and a label: the law keeps no state, and the network it runs on is
    the caller's, as are the previous rates.  Gains that do not match the
    network's metered ramps raise the kernel's
    :class:`~basepar.actm.TopologyError` at the first warm start."""

    gains: Union[tuple[float, ...], GainNetwork]
    label: str


def network_gains(
    params: NetworkParams, nets: dict[int, MlpParams], gain_range: tuple[float, float]
) -> GainNetwork:
    """The gains of the implicit controller: each metered cell's network
    output, clipped into ``gain_range``.

    Network extrapolation outside the range its targets were generated on is
    meaningless, and the clip keeps the controller inside the same gain
    family the parameterized online controllers search.
    """
    missing = [i for i in params.metered_cells if i not in nets]
    if missing:
        raise ValueError(f"missing networks for metered cells {missing}")
    return GainNetwork(tuple(nets[i] for i in params.metered_cells), tuple(gain_range))


@dataclass(frozen=True)
class WarmStart:
    """Metering plan produced by rolling a base controller through the model."""

    mu: tuple[tuple[float, ...], ...]              # horizon x metered ramps
    theta: tuple[tuple[float, ...], ...]           # gain trail, horizon x metered ramps
    total_cost: float                              # summed stage cost along the rollout
    running_cost: tuple[float, ...]                # over the first k steps, k = 0 ... horizon


def warm_start_rollout(
    bases: Sequence[FeedbackController],
    mu_prev: Sequence[float],
    state: NetworkState,
    predicted_inputs: Sequence[ExogenousInput],
    horizons: Sequence[int],
    params: NetworkParams,
    o_prev: Sequence[float],
    gamma: float = 0.8,
) -> list[WarmStart]:
    """Extend every base controller's single-step output into a full
    sequence, base ``i`` over ``horizons[i]`` steps, in one kernel call.

    Each base and the model ``params``, one gain row of one kernel call,
    alternate from the applied rates ``mu_prev``, each emission on the
    predicted state.  ``o_prev`` carries the latest realized upstream
    mainline inflow per metered ramp, which a gain network reads at the
    first step and the model's flows replace after it.  The kernel checks
    the horizons and the gains against the network.  The first base, in
    order, whose rollout fails raises what
    :func:`~basepar.actm.raise_failure` raises, as the plant step does.
    """
    if len(horizons) != len(bases) or not bases:
        raise ValueError("every base needs one horizon")
    # the feedback law's input checks, which only the first state can fail;
    # NaN fails too
    if not all(m >= 0 for m in mu_prev):
        raise ValueError("mu_prev must be nonnegative")
    if not all(state.n[i] >= 0 for i in params.metered_cells):
        raise ValueError("densities must be nonnegative")
    costs, plans, running, _, trails, _ = actm.rollout_batch(
        state, predicted_inputs, params, max(horizons), gamma, gains=[b.gains for b in bases],
        mu_prev=mu_prev, horizons=np.array(horizons), o_prev=o_prev)
    warm = []
    for b, (base, length) in enumerate(zip(bases, horizons)):
        plan = plans[b, :length]
        if not math.isfinite(costs[b]):
            actm.raise_failure(plan, base.label)
        warm.append(WarmStart(
            mu=tuple(map(tuple, plan.tolist())),
            theta=tuple(trails.get(b, (base.gains,) * length)),
            total_cost=float(costs[b]),
            running_cost=tuple(running[:length + 1, b].tolist()),
        ))
    return warm
