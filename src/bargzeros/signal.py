"""Deterministic signal components and their closed-form Bargmann transforms.

Each signal kind is a pair: a time-domain sampler ``f1(t)`` and the entire
function ``F1(zeta)`` it maps to under the Bargmann transform, together
with the derivative of ``F1`` (needed by the Kac-Rice intensity).  A signal
is its kind and its peak weighted amplitude
``A = sup_zeta exp(-|zeta|^2/2)|F1(zeta)|``, and its descriptor records the
``A`` given.  No phase is stored: ``exp(-i*phi)*F0`` has the law of the
Gaussian entire function ``F0``, so a phase changes no zero statistic.
"""

from __future__ import annotations

import cmath
import enum
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


class SignalKind(enum.Enum):
    ZERO = "zero"
    GAUSS = "gauss"
    HERMITE1 = "hermite1"


#: each kind's coefficient at ``A = 1``; the first Hermite signal's weighted
#: amplitude ``r*exp(-r^2/2)`` peaks at ``r = 1`` with value ``exp(-1/2)``
_UNIT_COEFFICIENT = {SignalKind.ZERO: 0.0, SignalKind.GAUSS: 1.0,
                     SignalKind.HERMITE1: math.exp(0.5)}


@dataclass(frozen=True)
class SignalModel:
    """A deterministic component: kind and peak weighted amplitude ``A >= 0``
    (0 for the zero kind)."""

    kind: SignalKind
    A: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", float(self.A))  # the descriptor is a float's repr
        if self.A < 0:
            raise ConfigError(f"A must be non-negative, got {self.A}")
        if self.kind is SignalKind.ZERO and self.A > 0:
            raise ConfigError("the zero signal cannot be scaled to positive amplitude")
        if not cmath.isfinite(self.coefficient):
            raise ConfigError(f"signal coefficient must be finite, got {self.coefficient}")

    @property
    def coefficient(self) -> complex:
        """The factor of the kind's unit signal in both the time-domain
        sample and the transform: ``A`` for gauss, ``A*exp(1/2)`` for
        hermite1, 0 for zero."""
        return complex(self.A * _UNIT_COEFFICIENT[self.kind])

    def descriptor(self) -> str:
        """Round-trippable string form, e.g. ``"gauss:A=1.0"``."""
        if self.kind is SignalKind.ZERO:
            return "zero"
        return f"{self.kind.value}:A={self.A!r}"


def bargmann_closed_form(model: SignalModel, zeta):
    """The transform ``F1`` at ``zeta`` (scalar or array)."""
    zeta = np.asarray(zeta, dtype=np.complex128)
    if model.kind is SignalKind.ZERO:
        out = np.zeros_like(zeta)
    elif model.kind is SignalKind.GAUSS:
        out = np.full_like(zeta, model.coefficient)
    else:
        out = model.coefficient * zeta
    return out if out.ndim else complex(out)


def bargmann_derivative(model: SignalModel, zeta):
    """Complex derivative of ``F1`` at ``zeta``."""
    zeta = np.asarray(zeta, dtype=np.complex128)
    if model.kind is SignalKind.HERMITE1:
        out = np.full_like(zeta, model.coefficient)
    else:
        out = np.zeros_like(zeta)
    return out if out.ndim else complex(out)


def sample_signal(model: SignalModel, t):
    """Time-domain sample ``f1(t)`` (scalar or array)."""
    t = np.asarray(t, dtype=np.float64)
    if model.kind is SignalKind.ZERO:
        out = np.zeros(t.shape, dtype=np.complex128)
    elif model.kind is SignalKind.GAUSS:
        out = model.coefficient * np.exp(-t * t)
    else:
        out = model.coefficient * 2.0 * t * np.exp(-t * t)
    return out if np.ndim(out) else complex(out)


def model_for(kind: SignalKind, A: float) -> SignalModel:
    """Signal model of the given kind at peak weighted amplitude ``A``."""
    return SignalModel(kind, A)


_DESCRIPTOR_RE = re.compile(r"^(?P<kind>[a-z0-9]+)(?::A=(?P<A>[^:]+))?$", re.IGNORECASE)


def parse_signal(text: str, sigma: float = 1.0) -> SignalModel:
    """Parse a descriptor such as ``"zero"``, ``"gauss:A=1"``,
    ``"hermite1:A=100"`` into a model.  ``sigma``, the noise level read
    with it, is only checked: the model does not keep it."""
    m = _DESCRIPTOR_RE.match(text.strip().lower())
    if not m:
        raise ConfigError(f"cannot parse signal descriptor {text!r}")
    try:
        kind = SignalKind(m.group("kind"))
    except ValueError:
        raise ConfigError(f"unknown signal kind {m.group('kind')!r}") from None
    a_text = m.group("A")
    if a_text is None and kind is not SignalKind.ZERO:
        raise ConfigError(f"signal {kind.value!r} needs an amplitude, e.g. '{kind.value}:A=1'")
    try:
        amp = 0.0 if a_text is None else float(a_text)
    except ValueError:
        raise ConfigError(f"bad amplitude {a_text!r}") from None
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")
    return SignalModel(kind, amp)
