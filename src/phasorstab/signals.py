"""Balanced three-phase signals, the dq0 transformation, phasors, and complex power.

Everything here is a pure function over small immutable value types, so the
module is safe to use from any number of threads. Units are per-unit for
magnitudes, radians for angles, seconds for time. Angles are plain floats and
are never wrapped: wrapping would corrupt path integrals of d(theta) taken
downstream.
"""

from __future__ import annotations

import math

from .records import recordclass

__all__ = [
    "ThreePhaseSignal",
    "Phasor",
    "ComplexPower",
    "dq0_matrix",
    "dq0_transform",
    "phasor_from_dq",
    "complex_power",
]

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_SQRT_2_3 = math.sqrt(2.0 / 3.0)

PHASOR_ATOL = 1e-9  # default componentwise tolerance for phasor comparisons


@recordclass(frozen=True)
class ThreePhaseSignal:
    """One sample of a balanced AC three-phase signal.

    amplitude: instantaneous envelope A >= 0 (per-unit).
    phase_angle: instantaneous angle theta (radians, unwrapped).

    The reconstructed phases are A*sin(theta), A*sin(theta - 2pi/3),
    A*sin(theta + 2pi/3); they sum to zero at every sample.
    """

    amplitude: float
    phase_angle: float

    def __post_init__(self) -> None:
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")

    def abc(self) -> tuple[float, float, float]:
        """Instantaneous phase values (a, b, c)."""
        a = self.amplitude * math.sin(self.phase_angle)
        b = self.amplitude * math.sin(self.phase_angle - _TWO_THIRDS_PI)
        c = self.amplitude * math.sin(self.phase_angle + _TWO_THIRDS_PI)
        return (a, b, c)


@recordclass(frozen=True)
class Phasor:
    """Complex-valued signal sample in magnitude/angle form.

    magnitude >= 0; the angle carries sign and rotation and is stored
    unwrapped (a Phasor built with angle=2*pi keeps that angle). Equality
    helpers compare rectangular parts, which is the value-semantics notion
    of sameness.
    """

    magnitude: float
    angle: float

    def __post_init__(self) -> None:
        if self.magnitude < 0.0:
            raise ValueError(f"magnitude must be nonnegative, got {self.magnitude}")

    @staticmethod
    def from_complex(z: complex) -> "Phasor":
        return Phasor(abs(z), math.atan2(z.imag, z.real))

    @property
    def re(self) -> float:
        return self.magnitude * math.cos(self.angle)

    @property
    def im(self) -> float:
        return self.magnitude * math.sin(self.angle)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def approx_eq(self, other: "Phasor", atol: float = PHASOR_ATOL) -> bool:
        return abs(self.re - other.re) <= atol and abs(self.im - other.im) <= atol


@recordclass(frozen=True)
class ComplexPower:
    """Active/reactive power pair (per-unit)."""

    active: float
    reactive: float

    def as_complex(self) -> complex:
        return complex(self.active, self.reactive)


def dq0_matrix(reference_angle: float) -> list[list[float]]:
    """Rotating-frame transformation matrix T(phi), rows (d, q, 0)."""
    phi = reference_angle
    return [
        [
            _SQRT_2_3 * math.cos(phi),
            _SQRT_2_3 * math.cos(phi - _TWO_THIRDS_PI),
            _SQRT_2_3 * math.cos(phi + _TWO_THIRDS_PI),
        ],
        [
            _SQRT_2_3 * math.sin(phi),
            _SQRT_2_3 * math.sin(phi - _TWO_THIRDS_PI),
            _SQRT_2_3 * math.sin(phi + _TWO_THIRDS_PI),
        ],
        [
            _SQRT_2_3 * math.sqrt(2.0) / 2.0,
            _SQRT_2_3 * math.sqrt(2.0) / 2.0,
            _SQRT_2_3 * math.sqrt(2.0) / 2.0,
        ],
    ]


def dq0_transform(
    signal: ThreePhaseSignal, reference_angle: float
) -> tuple[float, float, float]:
    """Project a balanced three-phase sample onto a rotating (d, q, 0) frame.

    For a balanced signal the zero sequence vanishes and
    (d, q) = sqrt(3/2) * A * (sin(theta - phi), cos(theta - phi)).
    The matrix product is evaluated directly rather than the closed form so
    that tests can use the closed form as an independent check.
    """
    t = dq0_matrix(reference_angle)
    abc = signal.abc()
    d = t[0][0] * abc[0] + t[0][1] * abc[1] + t[0][2] * abc[2]
    q = t[1][0] * abc[0] + t[1][1] * abc[1] + t[1][2] * abc[2]
    zero = t[2][0] * abc[0] + t[2][1] * abc[1] + t[2][2] * abc[2]
    return (d, q, zero)


def dq0_transform_abc(
    abc: tuple[float, float, float], reference_angle: float
) -> tuple[float, float, float]:
    """dq0 projection of an arbitrary instantaneous (a, b, c) triple."""
    t = dq0_matrix(reference_angle)
    return (
        t[0][0] * abc[0] + t[0][1] * abc[1] + t[0][2] * abc[2],
        t[1][0] * abc[0] + t[1][1] * abc[1] + t[1][2] * abc[2],
        t[2][0] * abc[0] + t[2][1] * abc[1] + t[2][2] * abc[2],
    )


def phasor_from_dq(d: float, q: float) -> Phasor:
    """Phasor representation of a dq pair: real part q, imaginary part d."""
    return Phasor.from_complex(complex(q, d))


def complex_power(voltage: Phasor, current: Phasor) -> ComplexPower:
    """Complex power generated in a branch, with voltage and current in the
    associated reference direction: S = -conj(I) * V."""
    s = -current.as_complex().conjugate() * voltage.as_complex()
    return ComplexPower(s.real, s.imag)
