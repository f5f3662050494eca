"""Import footprint: scipy and networkx load on first use, never on import.

No simulation path needs either library: scipy serves only the offline
``mu`` optimization behind Table 1 and the model fitters, networkx only
graph interop.  A library module therefore imports such a heavy dependency
inside the function that uses it.  Each check runs in a fresh interpreter,
because this test process has long since loaded both libraries.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.ratios import optimize_mu
from repro.graph import TaskGraph, from_networkx, graph_to_dict, to_networkx
from repro.graph.io import graph_to_json, model_to_dict
from repro.speedup import AmdahlModel, GeneralModel
from repro.speedup.fit import fit_general

HEAVY = ("scipy", "networkx")
SRC = Path(repro.__file__).resolve().parents[1]

FIT_SAMPLES = [(1, 12.0), (2, 7.5), (4, 5.75), (8, 5.5), (16, 6.5)]


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str) -> dict[str, bool]:
    """Which heavy libraries are in ``sys.modules`` after running ``code``."""
    out = run_fresh(
        code
        + textwrap.dedent(
            f"""
            import json, sys
            print(json.dumps({{m: m in sys.modules for m in {HEAVY!r}}}))
            """
        )
    )
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize(
    "module", ["repro", "repro.lint", "repro.service", "repro.experiments", "repro.runtime"]
)
def test_import_loads_neither_scipy_nor_networkx(module):
    assert loaded_after(f"import {module}\n") == {m: False for m in HEAVY}


def sample_graph() -> TaskGraph:
    g = TaskGraph()
    g.add_task("a", AmdahlModel(w=30.0, d=2.0), tag="POTRF")
    g.add_task("b", GeneralModel(w=40.0, d=1.0, c=0.2, max_parallelism=24))
    g.add_task("c", AmdahlModel(w=1.0, d=10.0))
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    return g


def first_use(code: str, library: str) -> object:
    """Run ``code`` in a fresh interpreter and return the JSON value of ``out``.

    ``code`` imports what it needs, records in ``before`` whether
    ``library`` is loaded, then makes the first call and stores its result
    in ``out``.  Asserts that ``library`` was absent before the call and
    present after it.
    """
    code = textwrap.dedent(code) + textwrap.dedent(
        f"""
        after = {library!r} in sys.modules
        print(json.dumps({{"before": before, "after": after, "out": out}}))
        """
    )
    result = json.loads(run_fresh("import json, sys\n" + code).splitlines()[-1])
    assert result["before"] is False
    assert result["after"] is True
    return result["out"]


def as_json(value: object) -> object:
    return json.loads(json.dumps(value))


class TestFirstUse:
    def test_optimize_mu_loads_scipy(self):
        out = first_use(
            """
            from repro.core.ratios import optimize_mu
            before = "scipy" in sys.modules
            r = optimize_mu("amdahl")
            out = [r.family, r.mu, r.x, r.alpha, r.beta, r.ratio]
            """,
            "scipy",
        )
        r = optimize_mu("amdahl")
        assert out == [r.family, r.mu, r.x, r.alpha, r.beta, r.ratio]

    def test_fit_general_loads_scipy(self):
        out = first_use(
            f"""
            from repro.graph.io import model_to_dict
            from repro.speedup.fit import fit_general
            before = "scipy" in sys.modules
            out = model_to_dict(fit_general({FIT_SAMPLES!r}))
            """,
            "scipy",
        )
        assert out == as_json(model_to_dict(fit_general(FIT_SAMPLES)))

    def test_networkx_interop_loads_networkx(self):
        out = first_use(
            f"""
            from repro.graph import from_networkx, graph_to_dict, to_networkx
            from repro.graph.io import graph_from_json
            g = graph_from_json({graph_to_json(sample_graph())!r})
            before = "networkx" in sys.modules
            nxg = to_networkx(g)
            out = [sorted(nxg.nodes), sorted(nxg.edges), nxg.nodes["a"]["tag"],
                   graph_to_dict(from_networkx(nxg))]
            """,
            "networkx",
        )
        nxg = to_networkx(sample_graph())
        expected = [
            sorted(nxg.nodes),
            sorted(nxg.edges),
            nxg.nodes["a"]["tag"],
            graph_to_dict(from_networkx(nxg)),
        ]
        assert out == as_json(expected)
