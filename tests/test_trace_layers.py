"""Every name that `bench/run.py --trace 1` wraps must exist in foldkit, so
that removing a traced function fails here and not only in a traced run."""

import importlib
import pathlib


def test_every_traced_layer_is_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    assert tracing.LAYERS
    for layer, (module, function, _) in tracing.LAYERS.items():
        target = getattr(importlib.import_module(module), function, None)
        assert callable(target), f"{layer}: {module}.{function} is missing"
