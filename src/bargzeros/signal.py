"""Deterministic signal components and their closed-form Bargmann transforms.

Each signal kind is a pair: a time-domain sampler ``f1(t)`` and the entire
function ``F1(zeta)`` it maps to under the Bargmann transform, together
with the derivative of ``F1`` (needed by the Kac-Rice intensity).  The
peak weighted amplitude ``A = sup_zeta exp(-|zeta|^2/2)|F1(zeta)|``
parameterises signal strength; ``model_for`` inverts it.
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


@dataclass(frozen=True)
class SignalModel:
    """A deterministic component: kind, complex coefficient, noise level.

    The coefficient multiplies both the time-domain sample and the
    transform, so the pair stays consistent under rescaling.
    """

    kind: SignalKind
    coefficient: complex = 1.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
        if self.kind is SignalKind.ZERO and self.coefficient != 0:
            object.__setattr__(self, "coefficient", 0j)
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        if not cmath.isfinite(self.coefficient):
            raise ConfigError(f"signal coefficient must be finite, got {self.coefficient}")

    @property
    def A(self) -> float:
        """Peak weighted amplitude of the transform.  For the first Hermite
        signal, the nearest to ``|c|*exp(-1/2)`` of the amplitudes within 4
        ulp of it that :func:`model_for` scales back to coefficient ``|c|``,
        when one does (every ``c`` that an amplitude was scaled to), so that
        :meth:`descriptor` parses back to the same coefficient."""
        c = abs(self.coefficient)
        if self.kind is not SignalKind.HERMITE1:
            return c
        a = c * math.exp(-0.5)
        for k in (0, -1, 1, -2, 2, -3, 3, -4, 4):
            if (a + k * math.ulp(a)) * math.exp(0.5) == c:
                return a + k * math.ulp(a)
        return a

    def descriptor(self) -> str:
        """Round-trippable string form, e.g. ``"gauss:A=1"``."""
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


def model_for(kind: SignalKind, A: float, sigma: float = 1.0) -> SignalModel:
    """Signal model of the given kind scaled to peak weighted amplitude ``A``
    by a real coefficient ``>= 0``.  The first Hermite signal's weighted
    amplitude ``r*exp(-r^2/2)`` peaks at ``r = 1`` with value ``exp(-1/2)``,
    hence its ``exp(1/2)`` factor."""
    if A < 0:
        raise ConfigError(f"A must be non-negative, got {A}")
    if kind is SignalKind.ZERO and A > 0:
        raise ConfigError("the zero signal cannot be scaled to positive amplitude")
    if kind is SignalKind.HERMITE1:
        coefficient = complex(A * math.exp(0.5))
    else:
        coefficient = complex(A) if kind is SignalKind.GAUSS else 0j
    return SignalModel(kind=kind, coefficient=coefficient, sigma=sigma)


_DESCRIPTOR_RE = re.compile(r"^(?P<kind>[a-z0-9]+)(?::A=(?P<A>[^:]+))?$", re.IGNORECASE)


def parse_signal(text: str, sigma: float = 1.0) -> SignalModel:
    """Parse a descriptor such as ``"zero"``, ``"gauss:A=1"``,
    ``"hermite1:A=100"`` into a model."""
    m = _DESCRIPTOR_RE.match(text.strip().lower())
    if not m:
        raise ConfigError(f"cannot parse signal descriptor {text!r}")
    try:
        kind = SignalKind(m.group("kind"))
    except ValueError:
        raise ConfigError(f"unknown signal kind {m.group('kind')!r}") from None
    a_text = m.group("A")
    if kind is SignalKind.ZERO:
        if a_text is not None and float(a_text) != 0:
            raise ConfigError("signal 'zero' takes no amplitude")
        return SignalModel(kind=kind, coefficient=0j, sigma=sigma)
    if a_text is None:
        raise ConfigError(f"signal {kind.value!r} needs an amplitude, e.g. '{kind.value}:A=1'")
    try:
        amp = float(a_text)
    except ValueError:
        raise ConfigError(f"bad amplitude {a_text!r}") from None
    return model_for(kind, amp, sigma=sigma)
