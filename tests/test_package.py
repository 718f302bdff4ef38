"""What importing the package loads, and its lazily loaded public names.

Importing the model (``repro.core``, ``repro.noc``, ``repro.apps``)
loads ``repro.telemetry.metrics`` and no other telemetry, no debugger
and no HTTP stack; ``repro`` and ``repro.telemetry`` import a public
name's submodule on the name's first use.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.telemetry

SRC = str(Path(repro.__file__).resolve().parents[1])

#: modules an untraced run of the model never executes
NOT_LOADED = [
    "http.server",
    "ssl",
    *(
        f"repro.telemetry.{name}"
        for name in (
            "server",
            "alerts",
            "live",
            "health",
            "hostperf",
            "analysis",
            "top",
            "trend",
            "registry",
        )
    ),
    "repro.debug",
]


def _run(code: str) -> str:
    """Run *code* in a fresh interpreter on this checkout; its stdout."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    return proc.stdout


def test_importing_the_model_loads_only_the_model():
    loaded = _run(
        """
        import sys
        import repro.apps, repro.core, repro.noc
        print("\\n".join(sys.modules))
        """
    ).split()
    assert [m for m in NOT_LOADED if m in loaded] == []
    assert "repro.telemetry.metrics" in loaded


def test_setting_up_and_running_imports_nothing():
    """The ledger times set-up and run; neither may import a module."""
    new = _run(
        """
        import sys
        from repro.apps import EdgeDetectionApp, reference_sobel, worker_program
        from repro.apps.workloads import TrafficConfig, drive_traffic
        from repro.core import MultiNoCPlatform
        from repro.noc import HermesNetwork

        before = set(sys.modules)
        net = HermesNetwork(topology="mesh:3x3")
        sources = drive_traffic(net, TrafficConfig(rate=0.05, duration=60, seed=1))
        sim = net.make_simulator()
        sim.run_until(
            lambda: all(s.done for s in sources) and net.drained, max_cycles=50_000
        )
        assert net.collect_received()
        session = MultiNoCPlatform.standard().launch()
        app = EdgeDetectionApp(session.host, processors=[1, 2], program=worker_program())
        app.deploy()
        image = [[(7 * x + 13 * y) & 0xFF for x in range(8)] for y in range(4)]
        assert app.run(image).output[1:-1] == reference_sobel(image)[1:-1]
        print("\\n".join(sorted(set(sys.modules) - before)))
        """
    )
    assert new.split() == []


@pytest.mark.parametrize("package", [repro, repro.telemetry], ids=lambda p: p.__name__)
def test_every_public_name_is_its_submodules_object(package):
    names = [name for names in package._EXPORTS.values() for name in names]
    extra = ["__version__"] if package is repro else []
    assert sorted(package.__all__) == sorted(names + extra)
    listed = dir(package)
    for module, names in package._EXPORTS.items():
        source = importlib.import_module(module, package.__name__)
        for name in names:
            assert getattr(package, name) is getattr(source, name), name
            assert name in listed


@pytest.mark.parametrize("package", [repro, repro.telemetry], ids=lambda p: p.__name__)
def test_an_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_star_imports_bind_every_public_name():
    namespace = {}
    exec("from repro.telemetry import *\nfrom repro import *", namespace)
    assert set(repro.telemetry.__all__) | set(repro.__all__) <= set(namespace)
    assert namespace["TelemetryServer"] is repro.telemetry.TelemetryServer
