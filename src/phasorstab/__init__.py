"""Phasor-circuit stability analytics for AC power systems.

Import the modules by name (``phasorstab.simulator``, ``phasorstab.certify``,
...); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
