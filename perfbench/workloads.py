"""The three workloads: one round of operations each, and the checks on it.

Every workload runs the same eight operations through ``funcldp.cli.run``
and the library's public functions.  A workload's profile sizes them so that
its own group of layers does nearly all the work; the other operations run
as small probes, so every end-to-end metric is measured on every workload.
Inputs are fixed apart from the Monte-Carlo seeds, which come from the
workload seed, the round and the pass, so call counts repeat exactly.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oracle

LAMBDA = 1.0  # deviation width of both ladders
SCHEDULE = (2.0, 1.5)  # bandwidth schedule (a, alpha) of ladders and log-MGF rungs
CENTRES = (-1.0, -0.5, 0.0, 0.5, 1.0)
LOGMGF_T = (0.2, 0.1)
COVER_RADII_LADDER = {"n_values": [200, 1000, 5000], "a": 2.0, "alpha": 2.0}
COVER_A = 1.0
# The program integrates the weight on a 4001-node trapezoid grid.  At
# |lam2 / lam1| = 7.9 the tilted weight sits within 0.1 of the window edge,
# where that rule is off the continuous truncated Gaussian by 4e-6 relative.
PAIR_RTOL = 1e-4
RATIO_ATOL = 1e-8
RATE_TOL = 1e-7
# Rows the rate command writes with its defaults: 9 levels, a 7 x 7 pair grid.
DEFAULT_RATE_ROWS = (9, 49)
OPERATIONS = ("rate", "pairs", "ratios", "simulate", "uniform", "estimate", "logmgf", "cover")


@dataclass(frozen=True)
class Profile:
    """Sizes of the eight operations of one round."""

    rate: dict  # rate-command fields beyond "command"; {} keeps the defaults
    pairs: tuple  # (lambda1 values, lambda2 / lambda1 values)
    ratios: tuple  # (kernel, level) pairs
    simulate: tuple  # (n, replicates) rungs
    uniform: tuple  # (n, replicates) rungs
    estimate: tuple  # (curves, bandwidths)
    logmgf: tuple  # (n, replicates) rungs
    cover: tuple  # (members, radii)
    focus: tuple  # the operations sized to dominate; the others are probes

    @property
    def probes(self) -> tuple:
        return tuple(op for op in OPERATIONS if op not in self.focus)


_PROBE_RATE = {"lambda_values": [0.5, 1.0, 1.5], "lambda1_values": [0.5, 2.0],
               "ratio_values": [-1.0, 0.0, 1.0]}
_PROBE_PAIRS = ((0.5, 2.0), (-6.0, -3.0, 0.0, 3.0, 6.0))
_PROBE_RATIOS = (("affine", -1.0),)
_PROBE_SIMULATE = ((200, 1000), (2000, 100), (20000, 20))
_PROBE_UNIFORM = ((200, 1000),)
_PROBE_ESTIMATE = (10000, (0.02, 0.1, 0.5))
_PROBE_LOGMGF = ((500, 40), (2000, 8), (8000, 3))
_PROBE_COVER = (256, (0.1, 0.01))

PROFILES = {
    "ladder": Profile(
        _PROBE_RATE, _PROBE_PAIRS, _PROBE_RATIOS,
        simulate=((200, 8000), (2000, 3000), (20000, 1000)),
        uniform=((200, 3000), (2000, 1000)),
        estimate=_PROBE_ESTIMATE, logmgf=_PROBE_LOGMGF, cover=_PROBE_COVER,
        focus=("simulate", "uniform"),
    ),
    "rates": Profile(
        rate={},
        pairs=(tuple(float(v) for v in np.geomspace(0.05, 4.0, 4)),
               tuple(float(v) for v in np.linspace(-7.9, 7.9, 11))),
        ratios=tuple((k, lam) for k in ("exp_decay", "affine") for lam in (-1.0, 7.9)),
        simulate=_PROBE_SIMULATE, uniform=_PROBE_UNIFORM,
        estimate=_PROBE_ESTIMATE, logmgf=_PROBE_LOGMGF, cover=_PROBE_COVER,
        focus=("rate", "pairs", "ratios"),
    ),
    "curves": Profile(
        _PROBE_RATE, _PROBE_PAIRS, _PROBE_RATIOS, _PROBE_SIMULATE, _PROBE_UNIFORM,
        estimate=(40000, (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)),
        logmgf=((500, 400), (2000, 100), (8000, 60)),
        cover=(2048, (0.1, 0.001)),
        focus=("estimate", "logmgf", "cover"),
    ),
}


def known_fault(op: str, level: float) -> bool:
    """Operations that fail every time today because of faults in the program.

    ``legendre_rate`` reports divergence once its iterate passes norm 50,
    which happens for |lam2 / lam1| above about 7.65; the ``ratio_rate``
    contraction exceeds the weight mass for levels beyond about 6.
    """
    return (op == "legendre_rate" and abs(level) > 7.6) or (
        op == "ratio_rate" and abs(level) > 6.0
    )


class Ledger:
    """Operations attempted and failed, with one entry per failing operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, list] = {}  # name -> [count, detail, known]

    def record(self, name: str, ok: bool, detail: str = "", known: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.unexpected += not known
        entry = self.failures.setdefault(name, [0, detail, known])
        entry[0] += 1


def _close(value, expected, rtol=0.0, atol=0.0) -> bool:
    return math.isfinite(value) and abs(value - expected) <= atol + rtol * abs(expected)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Inputs:
    """Everything set-up builds: library objects, configs and the bump curve."""

    profile: Profile
    uniform_model: object
    kernel_models: dict
    logmgf_rungs: list  # (n, replicates, EstimatorConfig, data law)
    x0_51: object
    configs: dict
    captured: list = field(default_factory=list)


def build(funcldp, profile: Profile, workdir: str) -> Inputs:
    """Set-up: models, weights, estimator configs, command configs, the bump CSV."""
    from funcldp import estimator, ratefn, simulate
    from funcldp.funcdata import (AffineKernel, Curve, ExpDecayKernel, IdentityScaling,
                                  IntegralDifference, UniformKernel)

    weight = ratefn.WeightDensity.gaussian()
    index = estimator.IdentityIndex()
    uniform_model = ratefn.RateModel(weight, index, UniformKernel(), IdentityScaling())
    kernel_models = {
        "exp_decay": ratefn.RateModel(weight, index, ExpDecayKernel(), IdentityScaling()),
        "affine": ratefn.RateModel(weight, index, AffineKernel(), IdentityScaling()),
    }
    model51 = simulate.default_model(51)
    x0_51 = Curve.constant(model51.grid, 0.0)
    rungs = []
    for n, reps in profile.logmgf:
        h, _ = simulate.bandwidth_schedule(n, *SCHEDULE)
        cfg = estimator.EstimatorConfig(UniformKernel(), IntegralDifference(), h,
                                        model51.small_ball_scale(h))

        def law(rng, n=n):
            return simulate.sample_dataset(model51, n, int(rng.integers(2**62)))

        rungs.append((n, reps, cfg, law))

    bump_path = os.path.join(workdir, "bump.csv")
    t = np.linspace(0.0, 1.0, 101)
    with open(bump_path, "w") as fh:
        fh.write("t,value\n")
        for ti, vi in zip(t, np.exp(-0.5 * ((t - 0.5) / 0.08) ** 2)):
            fh.write(f"{float(ti)!r},{float(vi)!r}\n")

    a, alpha = SCHEDULE
    ladder = {"model": {"default": True}, "a": a, "alpha": alpha, "lambda": LAMBDA}
    members, radii = profile.cover
    configs = {
        "rate": {"command": "rate", **profile.rate},
        "simulate": {"command": "simulate", **ladder, "x0": {"constant": 0.0},
                     "n_values": [n for n, _ in profile.simulate],
                     "replicates": [r for _, r in profile.simulate]},
        "uniform": {"command": "uniform", **ladder,
                    "centers": [{"constant": c} for c in CENTRES],
                    "n_values": [n for n, _ in profile.uniform],
                    "replicates": [r for _, r in profile.uniform]},
        "estimate": {"command": "estimate", "model": {"default": True},
                     "x0": {"constant": 0.0}, "n": profile.estimate[0],
                     "h_values": list(profile.estimate[1])},
        "cover": {"command": "cover",
                  "class": {"scale": {"base_csv": bump_path, "a_lo": 1.0, "a_hi": 2.0,
                                      "count": members}},
                  "nu_values": list(radii), "metric": {"lp": 1},
                  "ladder": COVER_RADII_LADDER, "A": COVER_A},
    }
    return Inputs(profile, uniform_model, kernel_models, rungs, x0_51, configs)


def capture_covers(covering, inputs: Inputs) -> None:
    """Keep what ``greedy_cover`` returns, since the cover CSV omits the centres."""
    greedy = covering.greedy_cover

    def capturing(cls, nu, metric):
        report = greedy(cls, nu, metric)
        inputs.captured.append((cls, metric, report))
        return report

    covering.greedy_cover = capturing


@dataclass
class References:
    """Independent values the checks compare against, computed once per run."""

    pairs: dict
    ratios: dict
    simulate: list
    uniform: list
    logmgf: list
    members: np.ndarray


def references(profile: Profile) -> References:
    a, alpha = SCHEDULE
    l1s, ratios = profile.pairs
    pairs = {(l1, r): oracle.truncated_pair_rate(l1, l1 * r) for l1 in l1s for r in ratios}
    ratio = {(k, lam): oracle.ratio_rate(k, lam) for k, lam in profile.ratios}

    def rung(n, centres):
        h, _ = oracle.schedule(n, a, alpha)
        return [oracle.hit_bracket(n, h, LAMBDA, c) for c in centres]

    simulate = [rung(n, (0.0,))[0] for n, _ in profile.simulate]
    uniform = []
    for n, _ in profile.uniform:
        per_centre = rung(n, CENTRES)
        uniform.append((max(lo for lo, _ in per_centre),
                        min(1.0, sum(hi for _, hi in per_centre))))
    logmgf = []
    for n, reps in profile.logmgf:
        h, _ = oracle.schedule(n, a, alpha)
        logmgf.append((h, oracle.log_mgf_interval(n, h, *LOGMGF_T, 0.0, reps)))
    base = np.exp(-0.5 * ((np.linspace(0.0, 1.0, 101) - 0.5) / 0.08) ** 2)
    members = oracle.scale_members(base, 1.0, 2.0, profile.cover[0])
    return References(pairs, ratio, simulate, uniform, logmgf, members)


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


def _timed(fn, *args):
    """(result or exception, seconds); an exception is a failed operation."""
    started = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        result = exc
    return result, time.perf_counter() - started


def execute(funcldp, inputs: Inputs, ops, seeds: tuple[int, int, int, int], outdir: str,
            after_op=lambda: None):
    """Run the named operations once; return their outputs and timings.

    An operation's timing is a list with one entry per unit of work that
    repeats identically in every round: a command, a pair, a level, a rung.
    ``after_op`` runs after each operation.
    """
    cli, ratefn = funcldp.cli, funcldp.ratefn
    estimator, covering = funcldp.estimator, funcldp.covering
    profile = inputs.profile
    sim_seed, uni_seed, est_seed, mgf_seed = seeds
    out: dict = {}
    times: dict = {}

    def command(name, cfg):
        path = os.path.join(outdir, name)
        result, seconds = _timed(cli.run, cfg, path)
        out[name] = result if isinstance(result, Exception) else path
        times[name] = [seconds]

    for op in ops:
        if op == "rate":
            command("rate", inputs.configs["rate"])
        elif op == "pairs":
            l1s, ratios = profile.pairs
            out[op], times[op] = [], []
            for l1 in l1s:
                for r in ratios:
                    closed, t_c = _timed(ratefn.closed_rate_uniform, inputs.uniform_model,
                                         l1, l1 * r)
                    legendre, t_l = _timed(ratefn.legendre_rate, inputs.uniform_model,
                                           l1, l1 * r)
                    out[op].append((l1, r, closed, legendre))
                    times[op] += [t_c, t_l]
        elif op == "ratios":
            out[op], times[op] = [], []
            for kernel, lam in profile.ratios:
                value, seconds = _timed(ratefn.ratio_rate, inputs.kernel_models[kernel], lam)
                out[op].append((kernel, lam, value))
                times[op].append(seconds)
        elif op == "simulate":
            command(op, {**inputs.configs[op], "seed": sim_seed})
        elif op == "uniform":
            command(op, {**inputs.configs[op], "seed": uni_seed})
        elif op == "estimate":
            command(op, {**inputs.configs[op], "seed": est_seed})
            out["estimate_seed"] = est_seed
        elif op == "logmgf":
            index = estimator.IdentityIndex()
            out[op], times[op] = [], []
            for _, reps, cfg, law in inputs.logmgf_rungs:
                value, seconds = _timed(estimator.finite_n_log_mgf, inputs.x0_51, law, index,
                                        cfg, *LOGMGF_T, reps, mgf_seed)
                out[op].append(value)
                times[op].append(seconds)
        elif op == "cover":
            inputs.captured.clear()
            command(op, inputs.configs[op])
            out["radii"] = []
            for cls, metric, report in inputs.captured:
                radii, seconds = _timed(covering.coverage_radii, cls, report, metric)
                out["radii"].append(radii)
                times[op][0] += seconds
            out["covers"] = [report for _, _, report in inputs.captured]
        after_op()
    return out, times


_PROBE_V = np.linspace(-8.0, 8.0, 4001)
_PROBE_W = np.exp(-0.5 * _PROBE_V**2)
_PROBE_ROWS = np.random.default_rng(7).standard_normal((400, 101))
_PROBE_BIG = np.ones(2_000_000)


def speed_probe() -> float:
    """Seconds for a fixed mix of small-array numpy, sampling, interpreter,
    row-distance and memory-streaming work that does not touch funcldp: the
    host's current speed."""
    started = time.perf_counter()
    _PROBE_BIG.sum()
    for s in np.linspace(-3.0, 3.0, 40):
        np.trapezoid(np.exp(s * _PROBE_V) * _PROBE_W, dx=0.004)
    rng = np.random.default_rng(12345)
    for _ in range(10):
        rng.standard_normal(4000)
    total = 0
    for i in range(20000):
        total += i & 7
    for row in _PROBE_ROWS[:8]:
        np.trapezoid(np.abs(_PROBE_ROWS - row), dx=0.01, axis=1)
    return time.perf_counter() - started


def figures(profile: Profile, times: dict) -> dict:
    """End-to-end figures from operation timings, each a list of unit times."""
    total = {op: sum(units) for op, units in times.items()}
    l1s, ratios = profile.pairs
    n, bandwidths = profile.estimate
    return {
        "wall_s": sum(total.values()),
        "rate_cli_s": total["rate"],
        "pair_rates_per_s": 2 * len(l1s) * len(ratios) / total["pairs"],
        "ratio_rates_per_s": len(profile.ratios) / total["ratios"],
        "mc_replicates_per_s": sum(r for _, r in profile.simulate) / total["simulate"],
        "uniform_replicates_per_s": sum(r for _, r in profile.uniform) / total["uniform"],
        "estimate_rows_per_s": n * len(bandwidths) / total["estimate"],
        "logmgf_replicates_per_s": sum(r for _, r in profile.logmgf) / total["logmgf"],
        "cover_s": total["cover"],
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check(funcldp, inputs: Inputs, refs: References, out: dict, ledger: Ledger) -> None:
    """Check the outputs of whichever operations ``out`` holds."""
    profile = inputs.profile
    if "rate" in out:
        _check_rate(out["rate"], profile, ledger)
    if "pairs" in out:
        _check_pairs(out["pairs"], refs, ledger)
    if "ratios" in out:
        _check_ratios(out["ratios"], refs, ledger)
    if "simulate" in out:
        _check_ladder("simulate", out["simulate"], profile.simulate, refs.simulate,
                      oracle.two_sided_rate(0.0, LAMBDA), ledger)
    if "uniform" in out:
        _check_ladder("uniform", out["uniform"], profile.uniform, refs.uniform,
                      min(oracle.two_sided_rate(c, LAMBDA) for c in CENTRES), ledger)
    if "estimate" in out:
        _check_estimate(funcldp, out["estimate"], out["estimate_seed"], profile, ledger)
    if "logmgf" in out:
        _check_logmgf(out["logmgf"], profile, refs, ledger)
    if "cover" in out:
        _check_cover(out["cover"], out["covers"], out["radii"], profile, refs, ledger)


def _failed_command(result, name: str, count: int, ledger: Ledger) -> bool:
    if isinstance(result, Exception):
        for _ in range(count):
            ledger.record(f"{name} command", False, f"raised {result!r}")
        return True
    return False


def _rate_rows(profile: Profile) -> tuple[int, int]:
    if not profile.rate:
        return DEFAULT_RATE_ROWS
    pairs = len(profile.rate["lambda1_values"]) * len(profile.rate["ratio_values"])
    return len(profile.rate["lambda_values"]), pairs


def _check_rate(result, profile: Profile, ledger: Ledger) -> None:
    n_sweep, n_conj = _rate_rows(profile)
    if _failed_command(result, "rate", n_sweep + n_conj, ledger):
        return
    sweep = _read_csv(os.path.join(result, "rate_sweep.csv"))
    conj = _read_csv(os.path.join(result, "rate_conjugate.csv"))
    for i in range(n_sweep):
        if i >= len(sweep):
            ledger.record(f"rate_sweep.csv row {i}", False, "row missing")
            continue
        lam = float(sweep[i]["lambda"])
        gamma, g1, g2 = oracle.gaussian_ratio_rate(lam)
        got = [float(sweep[i][k]) for k in ("gamma", "gamma_prime", "gamma_second", "beta")]
        ok = all(_close(v, e, atol=RATE_TOL) for v, e in zip(got, (gamma, g1, g2, gamma)))
        ledger.record(f"rate_sweep.csv lambda={lam}", ok,
                      f"got {got}, expected {[gamma, g1, g2, gamma]}")
    for i in range(n_conj):
        if i >= len(conj):
            ledger.record(f"rate_conjugate.csv row {i}", False, "row missing")
            continue
        l1, l2 = float(conj[i]["lambda1"]), float(conj[i]["lambda2"])
        rate = oracle.gaussian_pair_rate(l1, l2)
        got = (float(conj[i]["gamma_legendre"]), float(conj[i]["gamma_closed"]))
        ok = all(_close(v, rate, rtol=RATE_TOL, atol=RATE_TOL) for v in got)
        ledger.record(f"rate_conjugate.csv ({l1:.4g}, {l2:.4g})", ok,
                      f"got {got}, expected {rate}")


def _check_pairs(results, refs: References, ledger: Ledger) -> None:
    for l1, r, closed, legendre in results:
        expected = refs.pairs[(l1, r)]
        for op, value in (("closed_rate_uniform", closed), ("legendre_rate", legendre)):
            ok = not isinstance(value, Exception) and _close(value, expected, rtol=PAIR_RTOL)
            ledger.record(f"{op}(lam1={l1:.4g}, lam2/lam1={r:.4g})", ok,
                          f"got {value!r}, truncated-Gaussian oracle {expected!r}",
                          known_fault(op, r))


def _check_ratios(results, refs: References, ledger: Ledger) -> None:
    for kernel, lam, value in results:
        expected = refs.ratios[(kernel, lam)]
        ok = (not isinstance(value, Exception) and _close(value, expected, atol=RATIO_ATOL)
              and value <= oracle.WEIGHT_MASS + RATIO_ATOL)
        ledger.record(f"ratio_rate({kernel}, {lam})", ok,
                      f"got {value!r}, 1-D oracle {expected!r}, weight mass "
                      f"{oracle.WEIGHT_MASS!r}", known_fault("ratio_rate", lam))


def _check_ladder(name, result, rungs, brackets, theory, ledger: Ledger) -> None:
    if _failed_command(result, name, len(rungs), ledger):
        return
    csv_name = "ladder.csv" if name == "simulate" else "uniform_ladder.csv"
    rows = _read_csv(os.path.join(result, csv_name))
    a, alpha = SCHEDULE
    for i, ((n, reps), (lo, hi)) in enumerate(zip(rungs, brackets)):
        label = f"{name} rung n={n}"
        if i >= len(rows):
            ledger.record(label, False, "row missing")
            continue
        row = rows[i]
        h, _ = oracle.schedule(n, a, alpha)
        hits = int(row["hits"])
        w_lo, w_hi = oracle.hits_interval(hits, reps) if 0 <= hits <= reps else (1.0, 0.0)
        problems = []
        if int(row["n"]) != n or int(row["replicates"]) != reps:
            problems.append("n or replicates differ from the config")
        if not (_close(float(row["h"]), h, rtol=1e-12)
                and _close(float(row["phi_h"]), 2.0 * h, rtol=1e-12)):
            problems.append(f"h, phi_h = {row['h']}, {row['phi_h']}; expected {h}, {2 * h}")
        if not _close(float(row["p_hat"]), hits / reps, rtol=1e-12, atol=1e-300):
            problems.append(f"p_hat {row['p_hat']} != hits / replicates")
        if w_hi < lo or hi < w_lo:
            problems.append(
                f"{hits}/{reps} hits: exact interval [{w_lo:.4g}, {w_hi:.4g}] at tail "
                f"{oracle.HITS_TAIL} misses the bracket [{lo:.5g}, {hi:.5g}]")
        if not _close(float(row["theoretical_rate"]), theory, rtol=1e-6):
            problems.append(f"theoretical_rate {row['theoretical_rate']} != {theory}")
        ledger.record(label, not problems, "; ".join(problems))


def _check_estimate(funcldp, result, seed, profile: Profile, ledger: Ledger) -> None:
    n, bandwidths = profile.estimate
    if _failed_command(result, "estimate", len(bandwidths), ledger):
        return
    rows = _read_csv(os.path.join(result, "estimate.csv"))
    simulate = funcldp.simulate
    data = simulate.sample_dataset(simulate.default_model(), n, seed)
    distance = np.abs(oracle.row_integrals(data.x_values) - 0.0)
    y = data.y
    del data
    for i, h in enumerate(bandwidths):
        label = f"estimate h={h}"
        if i >= len(rows):
            ledger.record(label, False, "row missing")
            continue
        row = rows[i]
        phi_h = 2.0 * h
        inside = distance <= h - 1e-12
        edge = distance <= h + 1e-12
        count = int(row["active_count"])
        problems = []
        if not _close(float(row["h"]), h, rtol=1e-15) or not _close(
                float(row["phi_h"]), phi_h, rtol=1e-15):
            problems.append("h or phi_h differ")
        if not int(inside.sum()) <= count <= int(edge.sum()):
            problems.append(f"active_count {count} outside [{inside.sum()}, {edge.sum()}]")
        elif inside.sum() == edge.sum():
            r_n1 = count / (n * phi_h)
            r_n2 = float(y[inside].sum()) / (n * phi_h)
            r_hat = r_n2 / r_n1 if count else 0.0
            got = [float(row[k]) for k in ("r_n1", "r_n2", "r_hat")]
            if not all(_close(g, e, rtol=1e-9, atol=1e-12)
                       for g, e in zip(got, (r_n1, r_n2, r_hat))):
                problems.append(f"(r_n1, r_n2, r_hat) = {got}, expected "
                                f"{[r_n1, r_n2, r_hat]}")
        ledger.record(label, not problems, "; ".join(problems))


def _check_logmgf(results, profile: Profile, refs: References, ledger: Ledger) -> None:
    for (n, reps), (h, (lo, hi)), value in zip(profile.logmgf, refs.logmgf, results):
        label = f"finite_n_log_mgf n={n}"
        if isinstance(value, Exception):
            ledger.record(label, False, f"raised {value!r}")
            continue
        ok = not value.overflow and lo <= value.value <= hi
        detail = f"got {value.value!r}, overflow {value.overflow}"
        if not ok:
            z = oracle.log_mgf_z(value.value, n, h, *LOGMGF_T, 0.0, reps)
            detail += (f"; exact {oracle.log_mgf_exact(n, h, *LOGMGF_T, 0.0)!r}, "
                       f"z = {z:.2f}, Chernoff interval [{lo!r}, {hi!r}]")
        ledger.record(label, ok, detail)


def _check_cover(result, reports, radii, profile: Profile, refs: References,
                 ledger: Ledger) -> None:
    _, nus = profile.cover
    if _failed_command(result, "cover", len(nus) + 1, ledger):
        return
    rows = _read_csv(os.path.join(result, "cover_report.csv"))
    members = refs.members
    by_nu = {r.nu: (r, d) for r, d in zip(reports, radii)}
    counts = []
    for row_i, nu in enumerate(sorted(nus, reverse=True)):
        label = f"cover nu={nu}"
        if nu not in by_nu or row_i >= len(rows):
            ledger.record(label, False, "no cover returned for this radius")
            continue
        report, program_radii = by_nu[nu]
        centres = list(report.centers)
        counts.append(len(centres))
        dist = oracle.l1_to_rows(members[centres], members)
        nearest = dist.min(axis=0)
        between = dist[:, centres] + np.diag(np.full(len(centres), np.inf))
        row = rows[row_i]
        problems = []
        if int(row["n_cover"]) != len(centres) or float(row["nu"]) != nu:
            problems.append(f"csv row {row} does not match {len(centres)} centres")
        if not _close(float(row["nu_log_n"]), nu * math.log(len(centres)), rtol=1e-12):
            problems.append(f"nu_log_n {row['nu_log_n']}")
        if nearest.max() > nu * (1 + 1e-12):
            problems.append(f"a member lies {nearest.max()!r} from every centre")
        if len(centres) > 1 and between.min() <= nu * (1 - 1e-12):
            problems.append(f"two centres lie {between.min()!r} apart")
        if isinstance(program_radii, Exception) or not np.allclose(
                program_radii, nearest, rtol=1e-9, atol=1e-12):
            problems.append("coverage_radii disagree with the benchmark's L1 distances")
        ledger.record(label, not problems, "; ".join(problems))
    _check_entropy(result, counts, nus, ledger)


def _check_entropy(result, counts, nus, ledger: Ledger) -> None:
    problems = []
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append(f"N(nu) rises as nu grows: {counts}")
    rows = _read_csv(os.path.join(result, "entropy_diagnostics.csv"))
    rungs = COVER_RADII_LADDER["n_values"]
    if len(rows) != len(nus) * len(rungs) or len(counts) != len(nus):
        problems.append(f"{len(rows)} entropy rows for {len(nus)} radii")
    else:
        a, alpha = COVER_RADII_LADDER["a"], COVER_RADII_LADDER["alpha"]
        radii = sorted(nus, reverse=True)
        for i, row in enumerate(rows):
            nu, count = radii[i // len(rungs)], counts[i // len(rungs)]
            n = rungs[i % len(rungs)]
            h, phi_h = oracle.schedule(n, a, alpha)
            speed = n * phi_h
            admissible = nu < n * h / math.exp(COVER_A * speed)
            if (int(row["n_cover"]) != count or int(row["n"]) != n
                    or not _close(float(row["log_n_over_speed"]), math.log(count) / speed,
                                  rtol=1e-12)
                    or (row["admissible"] == "true") != admissible):
                problems.append(f"entropy row {i}: {row}")
    ledger.record("cover entropy diagnostics", not problems, "; ".join(problems))
