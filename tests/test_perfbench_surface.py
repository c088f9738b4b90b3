"""The names the benchmark under ``perfbench/`` reaches into the package by.

The tracer patches its listed functions and methods with ``getattr``, and
the ``spark-lfr1k`` workload calls seven Spark graph ops. Deleting or
renaming any of them breaks the benchmark at run time; these tests make
that a test failure instead. Nothing under ``perfbench/`` is modified.
"""
import importlib
import pathlib

import pytest

from perfbench.tracer import FUNCTIONS, METHODS, Tracer

WORKLOADS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# span name used in workloads.py -> (module, dotted attribute) it calls
SPARK_ENTRY_POINTS = {
    "graphs.graph.from_local": ("repro.graphs.graph", "Graph.from_local"),
    "graphs.graph.degrees": ("repro.graphs.graph", "Graph.degrees"),
    "graphs.graph.to_local": ("repro.graphs.graph", "Graph.to_local"),
    "graphs.components.connected_components": (
        "repro.graphs.components", "connected_components"),
    "graphs.kcore.k_core": ("repro.graphs.kcore", "k_core"),
    "graphs.triangles.edge_support": ("repro.graphs.triangles", "edge_support"),
    "graphs.bfs.distances": ("repro.graphs.bfs", "distances"),
}


def test_tracer_install_then_uninstall_restores():
    originals = {
        (modname, attr): getattr(importlib.import_module(modname), attr)
        for modname, attrs in FUNCTIONS.items() for attr in attrs
    }
    methods = {
        (modname, clsname, meth): getattr(importlib.import_module(modname), clsname).__dict__[meth]
        for (modname, clsname), (_, meths) in METHODS.items() for meth in meths
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (modname, attr), fn in originals.items():
            assert getattr(importlib.import_module(modname), attr) is not fn
    finally:
        tracer.uninstall()
    for (modname, attr), fn in originals.items():
        assert getattr(importlib.import_module(modname), attr) is fn
    for (modname, clsname, meth), fn in methods.items():
        assert getattr(importlib.import_module(modname), clsname).__dict__[meth] is fn


@pytest.mark.parametrize("span", sorted(SPARK_ENTRY_POINTS))
def test_spark_entry_point_exists(span):
    assert f'"{span}"' in WORKLOADS_PY.read_text()
    modname, dotted = SPARK_ENTRY_POINTS[span]
    obj = importlib.import_module(modname)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
