"""MultiNoC: a multiprocessing system enabled by a network on chip.

A full-system reproduction of Mello, Möller, Calazans & Moraes
(DATE 2004): the Hermes wormhole NoC, the R8 soft processor with its
toolchain, the memory/serial/processor IP cores, the host-side serial
software, and the FPGA prototyping models behind the paper's Section 3
report.

Quick start::

    from repro import MultiNoCPlatform

    session = MultiNoCPlatform.standard().launch()
    session.host.sync()
    session.run(1, '''
            CLR  R0
            LDI  R1, 42
            LDI  R2, 0xFFFF
            ST   R1, R2, R0   ; printf(42)
            HALT
    ''')
    assert session.host.monitor(1).printf_values == [42]
"""

import importlib

__version__ = "1.0.0"


def _lazy_exports(package: str, table: dict):
    """PEP 562 exports of *package* from ``{submodule: names}``.

    Returns ``(__all__, __getattr__, __dir__)``: a name's submodule is
    imported on the name's first use, so importing the package loads
    none of them.
    """
    where = {name: module for module, names in table.items() for name in names}
    namespace = vars(importlib.import_module(package))

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *where})

    return list(where), __getattr__, __dir__


#: submodule -> the public names it defines
_EXPORTS = {
    ".core": ("MultiNoCPlatform", "PlatformSession", "Program"),
    ".debug": ("SystemDebugger",),
    ".system": ("MultiNoC", "SystemConfig"),
    ".telemetry.events": ("TelemetrySink",),
    ".telemetry.health": ("HealthMonitor", "HealthViolation"),
    ".telemetry.hostperf": ("FlightRecorder", "HostPerfProfiler"),
    ".telemetry.metrics": ("MetricsRegistry",),
}
__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
