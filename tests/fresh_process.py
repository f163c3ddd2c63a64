"""Calls that ``test_cli`` makes in a new interpreter, to see what a run imports.

Run as ``python fresh_process.py MODE ARG`` with ``funcldp`` on the path;
the script prints one JSON object on its last line:

- ``loaded CONFIGS``: CONFIGS is a JSON object of output name to config
  path.  Prints the scipy modules loaded after ``import funcldp.cli`` and
  after each ``cli.main`` run, with that run's exit status.
- ``scipy_calls CONFIG``: runs ``scipy_calls`` on the simulate config at
  CONFIG and prints its result, plus whether ``scipy.special`` loaded.

Nothing here imports scipy itself.
"""

import contextlib
import io
import json
import os
import sys


def scipy_loaded() -> list[str]:
    """The names of the scipy modules in ``sys.modules``, sorted."""
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def _main(argv: list[str]) -> int:
    """``funcldp.cli.main(argv)`` with its printed paths swallowed."""
    from funcldp import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def loaded(configs: dict) -> dict:
    """The scipy modules loaded after the import and after each run in ``configs``."""
    import funcldp.cli  # noqa: F401 -- the import under test

    report = {"import": scipy_loaded()}
    for out, path in configs.items():
        report[out] = [_main(["--config", path, "--out", out]), scipy_loaded()]
    return report


def scipy_calls(config: str, out: str) -> dict:
    """A simulate run, a finite-n log-MGF and an ExpDecayKernel rate: each needs scipy.special.

    Returns the ladder CSV's text and the two floats in hex, so equality is bitwise.
    """
    from funcldp import estimator, ratefn, simulate
    from funcldp.funcdata import (Curve, ExpDecayKernel, IdentityScaling, IntegralDifference,
                                  UniformKernel)

    assert _main(["--config", config, "--out", out]) == 0
    with open(os.path.join(out, "ladder.csv")) as fh:
        ladder = fh.read()
    model = simulate.default_model()
    cfg = estimator.EstimatorConfig(UniformKernel(), IntegralDifference(), 0.2,
                                    model.small_ball_scale(0.2))
    log_mgf = estimator.finite_n_log_mgf(
        Curve.constant(model.grid, 0.0),
        lambda rng: simulate.sample_dataset(model, 200, int(rng.integers(2**62))),
        estimator.IdentityIndex(), cfg, 0.5, 0.3, replicates=4, seed=1)
    rate_model = ratefn.RateModel(ratefn.WeightDensity.gaussian(), estimator.IdentityIndex(),
                                  ExpDecayKernel(), IdentityScaling())
    return {"ladder": ladder, "log_mgf": log_mgf.value.hex(),
            "rate": ratefn.legendre_rate(rate_model, 1.0, 0.5).hex()}


if __name__ == "__main__":
    mode, arg = sys.argv[1:]
    if mode == "loaded":
        result = loaded(json.loads(arg))
    else:
        result = {**scipy_calls(arg, "fresh"), "special": "scipy.special" in sys.modules}
    print(json.dumps(result))
