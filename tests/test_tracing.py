"""The benchmark's span hooks still fit the package.

``perfbench/tracing.py`` wraps public functions by name; a renamed or
removed function would otherwise surface only in a traced benchmark run.
The module imports only the standard library, so it is loaded by path.
"""

import importlib.util
import pathlib

import funcldp.cli  # as the benchmark does: the CLI loads every layer that install reads
from funcldp import ratefn

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_records_and_restores(gaussian_model):
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, funcldp)  # a hook whose name is gone raises KeyError
        wrapped = list(tracer._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert vars(owner)[attr].__wrapped__ is original
        value = ratefn.two_sided_rate(gaussian_model, 1.0)
    finally:
        tracer.restore()
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original
    assert value == ratefn.two_sided_rate(gaussian_model, 1.0)
    name, start, end, parent, _ = tracer.spans[0]
    assert (name, parent) == ("ratefn.two_sided_rate", -1) and start <= end
    # the inner closed-form calls look the name up as module globals, so they nest
    assert [s[0] for s in tracer.spans[1:]] == ["ratefn.ratio_rate_closed"] * 2
    assert all(s[3] == 0 for s in tracer.spans[1:])
