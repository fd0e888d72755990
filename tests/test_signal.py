"""Signal models: closed-form transforms, scaling, parsing."""

import math

import numpy as np
import pytest

from bargzeros import (
    ConfigError,
    SignalKind,
    bargmann_closed_form,
    bargmann_derivative,
    model_for,
    parse_signal,
    sample_signal,
)
from bargzeros.signal import SignalModel

TOL = 1e-10


def test_closed_form_pairs():
    gauss = SignalModel(SignalKind.GAUSS, coefficient=1.0)
    herm = SignalModel(SignalKind.HERMITE1, coefficient=1.0)
    zero = SignalModel(SignalKind.ZERO)
    assert abs(bargmann_closed_form(gauss, 3 - 2j) - 1.0) < TOL
    assert abs(bargmann_closed_form(herm, 2 + 1j) - (2 + 1j)) < TOL
    assert bargmann_closed_form(zero, 5j) == 0


def test_closed_form_scales_with_coefficient():
    herm = SignalModel(SignalKind.HERMITE1, coefficient=2j)
    z = 1.5 - 0.5j
    assert abs(bargmann_closed_form(herm, z) - 2j * z) < TOL
    assert abs(bargmann_derivative(herm, z) - 2j) < TOL
    assert bargmann_derivative(SignalModel(SignalKind.GAUSS, 3.0), z) == 0


def test_model_for_coefficient():
    assert model_for(SignalKind.GAUSS, 1.0).coefficient == 1.0
    assert model_for(SignalKind.GAUSS, 100.0).coefficient == 100.0
    assert abs(model_for(SignalKind.HERMITE1, 1.0).coefficient - math.exp(0.5)) < TOL
    assert model_for(SignalKind.ZERO, 0.0).coefficient == 0
    with pytest.raises(ConfigError):
        model_for(SignalKind.ZERO, 1.0)
    with pytest.raises(ConfigError):
        model_for(SignalKind.GAUSS, -2.0)


def test_amplitude_invariant():
    assert model_for(SignalKind.HERMITE1, 7.5).A == pytest.approx(7.5, abs=TOL)
    assert model_for(SignalKind.GAUSS, 0.25).A == pytest.approx(0.25, abs=TOL)
    assert SignalModel(SignalKind.ZERO).A == 0.0


def test_amplitude_matches_grid_search():
    # fine search of exp(-|zeta|^2/2)|F1| over the box of half-width 6
    ax = np.linspace(-6, 6, 1201)
    zg = ax[:, None] + 1j * ax[None, :]
    for kind in (SignalKind.GAUSS, SignalKind.HERMITE1):
        model = model_for(kind, 3.0)
        vals = np.exp(-0.5 * np.abs(zg) ** 2) * np.abs(bargmann_closed_form(model, zg))
        assert abs(vals.max() - 3.0) < 1e-4


def test_time_samples():
    gauss = SignalModel(SignalKind.GAUSS, 1.0)
    herm1 = SignalModel(SignalKind.HERMITE1, 1.0)
    assert abs(sample_signal(gauss, 0.0) - 1.0) < TOL
    assert sample_signal(herm1, 0.0) == 0
    c = math.exp(0.5)
    t = 1.0 / math.sqrt(2.0)
    got = sample_signal(SignalModel(SignalKind.HERMITE1, c), t)
    assert abs(got - math.sqrt(2.0)) < TOL


def test_zero_kind_forces_zero_coefficient():
    m = SignalModel(SignalKind.ZERO, coefficient=5.0)
    assert m.coefficient == 0
    assert sample_signal(m, 1.3) == 0


def test_parse_signal_round_trip():
    for text, kind, A in [
        ("zero", SignalKind.ZERO, 0.0),
        ("gauss:A=1", SignalKind.GAUSS, 1.0),
        ("hermite1:A=100", SignalKind.HERMITE1, 100.0),
        ("GAUSS:A=2.5", SignalKind.GAUSS, 2.5),
        # |c|*exp(-1/2) of c = 901*exp(1/2) is 901.0000000000001, whose c is
        # another: the descriptor names the amplitude that gives c back
        ("hermite1:A=901", SignalKind.HERMITE1, 901.0),
        ("hermite1:A=22.32211", SignalKind.HERMITE1, 22.32211),
    ]:
        m = parse_signal(text)
        assert m.kind is kind
        assert m.A == pytest.approx(A, abs=TOL)
        again = parse_signal(m.descriptor())
        assert again == m and again.descriptor() == m.descriptor()


def test_parse_signal_rejects_garbage():
    for bad in ["gauss", "hermite1", "box:A=1", "gauss:A=abc", "zero:A=3"]:
        with pytest.raises(ConfigError):
            parse_signal(bad)
    for bad in ["gauss:B=1", "gauss:A=1:A=2", ""]:
        with pytest.raises(ConfigError, match="cannot parse signal descriptor"):
            parse_signal(bad)


def test_sigma_validation():
    with pytest.raises(ConfigError):
        SignalModel(SignalKind.GAUSS, 1.0, sigma=0.0)


def test_non_finite_coefficient_is_refused():
    # by the parser, by amplitude scaling (A * e^1/2 overflows for hermite1)
    # and by direct construction alike
    for bad in ["gauss:A=nan", "gauss:A=inf", "hermite1:A=1.1e308"]:
        with pytest.raises(ConfigError, match="signal coefficient must be finite"):
            parse_signal(bad)
    with pytest.raises(ConfigError, match="finite"):
        model_for(SignalKind.HERMITE1, 1.1e308)
    for c in (complex(math.inf, 0), complex(1, math.nan)):
        with pytest.raises(ConfigError, match="finite"):
            SignalModel(SignalKind.GAUSS, c)
    assert parse_signal("hermite1:A=1e308").coefficient == 1e308 * math.exp(0.5)
