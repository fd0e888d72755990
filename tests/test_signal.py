"""Signal models: closed-form transforms, scaling, parsing."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bargzeros import (
    ConfigError,
    SignalKind,
    bargmann_closed_form,
    bargmann_derivative,
    make_grid,
    model_for,
    parse_signal,
    read_field,
    synthesize_field,
    write_field,
    zero_noise,
)
from bargzeros.signal import SignalModel, sample_signal

TOL = 1e-10


def test_closed_form_pairs():
    gauss = SignalModel(SignalKind.GAUSS, A=1.0)
    herm = SignalModel(SignalKind.HERMITE1, A=math.exp(-0.5))
    zero = SignalModel(SignalKind.ZERO)
    assert abs(bargmann_closed_form(gauss, 3 - 2j) - 1.0) < TOL
    assert abs(bargmann_closed_form(herm, 2 + 1j) - (2 + 1j)) < TOL
    assert bargmann_closed_form(zero, 5j) == 0


def test_closed_form_scales_with_coefficient():
    # coefficient 2: amplitude 2*exp(-1/2)
    herm = SignalModel(SignalKind.HERMITE1, 2 * math.exp(-0.5))
    z = 1.5 - 0.5j
    assert abs(bargmann_closed_form(herm, z) - 2 * z) < TOL
    assert abs(bargmann_derivative(herm, z) - 2) < TOL
    assert bargmann_derivative(SignalModel(SignalKind.GAUSS, 3.0), z) == 0


def test_model_for_coefficient():
    assert model_for(SignalKind.GAUSS, 1.0).coefficient == 1.0
    assert model_for(SignalKind.GAUSS, 100.0).coefficient == 100.0
    assert abs(model_for(SignalKind.HERMITE1, 1.0).coefficient - math.exp(0.5)) < TOL
    assert model_for(SignalKind.ZERO, 0.0).coefficient == 0
    with pytest.raises(ConfigError):
        model_for(SignalKind.ZERO, 1.0)
    with pytest.raises(ConfigError, match="A must be non-negative, got -2.0"):
        model_for(SignalKind.GAUSS, -2.0)


def test_amplitude_invariant():
    assert model_for(SignalKind.HERMITE1, 7.5).A == 7.5
    assert model_for(SignalKind.GAUSS, 0.25).A == 0.25
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
    # coefficient exp(1/2): 2t*exp(-t^2)*exp(1/2) is sqrt(2) at t = 1/sqrt(2)
    t = 1.0 / math.sqrt(2.0)
    got = sample_signal(herm1, t)
    assert abs(got - math.sqrt(2.0)) < TOL


def test_zero_kind_refuses_an_amplitude():
    m = SignalModel(SignalKind.ZERO)
    assert m.A == 0 and m.coefficient == 0
    assert sample_signal(m, 1.3) == 0
    for a in (5.0, math.inf):
        with pytest.raises(ConfigError, match="zero signal cannot be scaled to positive"):
            SignalModel(SignalKind.ZERO, a)
    with pytest.raises(ConfigError, match="signal coefficient must be finite"):
        SignalModel(SignalKind.ZERO, math.nan)


def test_parse_signal_round_trip():
    for text, kind, A in [
        ("zero", SignalKind.ZERO, 0.0),
        ("gauss:A=1", SignalKind.GAUSS, 1.0),
        ("hermite1:A=100", SignalKind.HERMITE1, 100.0),
        ("GAUSS:A=2.5", SignalKind.GAUSS, 2.5),
        # 901*exp(1/2)*exp(-1/2) is 901.0000000000001: the model stores the
        # amplitude, not a coefficient it would be recovered from
        ("hermite1:A=901", SignalKind.HERMITE1, 901.0),
        ("hermite1:A=5", SignalKind.HERMITE1, 5.0),
        ("hermite1:A=22.32211", SignalKind.HERMITE1, 22.32211),
    ]:
        m = parse_signal(text)
        assert m.kind is kind
        assert m.A == A
        again = parse_signal(m.descriptor())
        assert again == m and again.descriptor() == m.descriptor()


def test_parse_signal_rejects_garbage():
    for bad in ["gauss", "hermite1", "box:A=1", "gauss:A=abc", "zero:A=3", "zero:A=abc",
                "gauss:A=-1"]:
        with pytest.raises(ConfigError):
            parse_signal(bad)
    for bad in ["gauss:B=1", "gauss:A=1:A=2", ""]:
        with pytest.raises(ConfigError, match="cannot parse signal descriptor"):
            parse_signal(bad)


def test_sigma_validation():
    # the parser checks the noise level read with a signal after the
    # descriptor's syntax and before its amplitude; the model keeps no sigma
    for sigma in (0.0, -1.0, math.inf, math.nan):
        for text in ("gauss:A=1", "gauss:A=-1"):
            with pytest.raises(ConfigError, match="sigma must be positive and finite"):
                parse_signal(text, sigma=sigma)
    with pytest.raises(ConfigError, match="bad amplitude"):
        parse_signal("gauss:A=x", sigma=0.0)
    assert parse_signal("gauss:A=1", sigma=2.0) == SignalModel(SignalKind.GAUSS, 1.0)
    with pytest.raises(TypeError):
        SignalModel(SignalKind.GAUSS, 1.0, sigma=1.0)


def test_non_finite_coefficient_is_refused():
    # by the parser, by amplitude scaling (A * e^1/2 overflows for hermite1)
    # and by direct construction alike
    for bad in ["gauss:A=nan", "gauss:A=inf", "hermite1:A=1.1e308"]:
        with pytest.raises(ConfigError, match="signal coefficient must be finite"):
            parse_signal(bad)
    with pytest.raises(ConfigError, match="finite"):
        model_for(SignalKind.HERMITE1, 1.1e308)
    for a in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            SignalModel(SignalKind.GAUSS, a)
    assert parse_signal("hermite1:A=1e308").coefficient == 1e308 * math.exp(0.5)


@settings(deadline=None)
@given(kind=hst.sampled_from([SignalKind.GAUSS, SignalKind.HERMITE1]),
       A=hst.floats(min_value=0.0, allow_infinity=False))
def test_descriptor_records_the_amplitude_given(kind, A):
    # every finite A >= 0 whose coefficient is finite parses back exactly
    # from the descriptor of its own repr, and a cache of a field it can be
    # synthesized at records it
    if not math.isfinite(A * math.exp(0.5)) and kind is SignalKind.HERMITE1:
        with pytest.raises(ConfigError, match="signal coefficient must be finite"):
            parse_signal(f"{kind.value}:A={A!r}")
        return
    m = parse_signal(f"{kind.value}:A={A!r}")
    assert m.A == A and m.descriptor() == f"{kind.value}:A={A!r}"
    assert m == SignalModel(kind, A) == model_for(kind, A)
    if A > 1e300:
        return
    g = make_grid(L=1, delta=0.5)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.wfield"
        write_field(synthesize_field(zero_noise(g), m, g), path)
        assert read_field(path).source.signal == m
