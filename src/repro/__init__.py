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

from .core import MultiNoCPlatform, PlatformSession, Program
from .debug import SystemDebugger
from .system import MultiNoC, SystemConfig
from .telemetry import (
    FlightRecorder,
    HealthMonitor,
    HealthViolation,
    HostPerfProfiler,
    MetricsRegistry,
    TelemetrySink,
)

__version__ = "1.0.0"

__all__ = [
    "FlightRecorder",
    "HealthMonitor",
    "HealthViolation",
    "HostPerfProfiler",
    "MetricsRegistry",
    "MultiNoC",
    "MultiNoCPlatform",
    "PlatformSession",
    "Program",
    "SystemConfig",
    "SystemDebugger",
    "TelemetrySink",
    "__version__",
]
