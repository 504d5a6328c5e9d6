"""Config grammar, validation (all errors at once), canonical round-trip."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdeco.config import (RunConfig, alpha_tag, canonical_config,
                           parse_config)
from lcdeco.errors import ConfigError

MINIMAL_FIG2 = """\
scenario = fig2
[model]
omega_a = 1.8
g = 0.05
alpha = 5, 10, 30
"""

DEVICE_SI = """\
scenario = derive-params
[device]
c_j = 1.0e-16
c_g = 1.0e-16
l = 5.0e-6
e_j0_kelvin = 0.05
n_g = 0.48344
phi_x = 9.9224e-16
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL_FIG2)
    assert cfg.scenario == "fig2"
    assert cfg.mode == "dimensionless"
    assert cfg.dim == 64
    assert cfg.samples == 400
    assert cfg.alpha == (5.0, 10.0, 30.0)
    assert cfg.theta == math.pi / 2.0
    assert abs(cfg.c0 - 1.0 / math.sqrt(2.0)) < 1e-15
    assert cfg.t_max is None and cfg.out is None


def test_comments_and_blank_lines():
    cfg = parse_config("# leading comment\n\nscenario = fig2  # trailing\n"
                       "[model]\nomega_a = 1.8\ng = 0.05\nalpha = 2\n")
    assert cfg.omega_a == 1.8


def test_dotted_keys_without_section():
    cfg = parse_config("scenario = fig2\nmodel.omega_a = 1.8\n"
                       "model.g = 0.05\nmodel.alpha = 2\n")
    assert cfg.g == 0.05


def test_empty_alpha_rejected_naming_key():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = fig2\n[model]\nomega_a = 1.8\ng = 0.05\n")
    assert any("model.alpha" in p for p in err.value.problems)


def test_all_problems_collected():
    """A bad file is reported once, completely: duplicate key, unknown
    key, type error, and a missing requirement all in one raise."""
    text = ("scenario = fig2\n"
            "[model]\n"
            "omega_a = 1.8\n"
            "omega_a = 2.0\n"       # duplicate (line 4)
            "g = fast\n"            # type error (line 5)
            "colour = red\n")       # unknown key (line 6), alpha missing
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    problems = err.value.problems
    assert any(p.startswith("line 4: duplicate key") for p in problems)
    assert any(p.startswith("line 5:") and "number" in p for p in problems)
    assert any(p.startswith("line 6: unknown key") for p in problems)
    assert any("model.alpha" in p for p in problems)
    assert len(problems) >= 4


def test_unknown_scenario():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = fig9\n")
    assert any("scenario" in p for p in err.value.problems)


def test_g_and_gamma_exclusive():
    text = ("scenario = fig2\n[model]\nomega_a = 1.8\n"
            "g = 0.05\ngamma = 0.0625\nalpha = 2\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("not both" in p for p in err.value.problems)


def test_gamma_shorthand():
    cfg = parse_config("scenario = fig2\n[model]\nomega_a = 1.8\n"
                       "gamma = 0.0625\nalpha = 2\n")
    assert abs(cfg.g - 0.05) < 1e-15


def test_si_mode_forbids_model_frequencies():
    text = DEVICE_SI + "[model]\nomega_a = 1.8\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("derived from the device block" in p
               for p in err.value.problems)


def test_device_si_preset():
    cfg = parse_config(DEVICE_SI)
    assert cfg.mode == "si"
    assert cfg.device is not None
    assert cfg.device.c_j == 1.0e-16
    assert cfg.device.convention == "junction_C"
    # derived gamma lands on the quoted 7e-2 order
    from lcdeco.runner import resolve_model
    m, time_scale, _ = resolve_model(cfg)
    assert abs(m.gamma - 0.0716) < 5e-4
    assert time_scale > 0.0


def test_ng_and_vg_exclusive():
    text = DEVICE_SI.replace("n_g = 0.48344\n",
                             "n_g = 0.48344\nv_g = 0.001\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("not both" in p for p in err.value.problems)


@pytest.mark.parametrize("alphas, named", [
    ("2, 2.0000001", ("2.0", "2.0000001")),
    ("2, 2", ("2.0",)),
])
def test_fig2_alphas_sharing_a_file_tag_rejected(alphas, named):
    # both would be written to fig2_alpha2.csv, the second over the first
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = fig2\n[model]\nomega_a = 1.8\ng = 0.05\n"
                     "alpha = %s\n" % alphas)
    [problem] = err.value.problems
    assert "'2'" in problem and all(v in problem for v in named)


def test_fig4_single_alpha():
    text = ("scenario = fig4\n[model]\nomega_a = 1.8\ng = 0.05\n"
            "alpha = 2, 5\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("exactly one alpha" in p for p in err.value.problems)


def test_fig4_needs_three_samples():
    text = ("scenario = fig4\n[model]\nomega_a = 1.8\ng = 0.05\n"
            "alpha = 2\nsamples = 2\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("at least 3 samples" in p for p in err.value.problems)
    assert parse_config(text.replace("samples = 2", "samples = 3")) \
        .samples == 3


def test_numeric_bounds():
    text = ("scenario = fig2\n[model]\nomega_a = -1\ng = -0.1\nalpha = 2\n"
            "dim = 1\nsamples = 1\nt_max = 0\n[run]\nthreads = 0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    joined = "\n".join(err.value.problems)
    for phrase in ("omega_a must be positive", "g must be nonnegative",
                   "dim must be >= 2", "samples must be >= 2",
                   "t_max must be positive", "threads must be >= 1"):
        assert phrase in joined


def test_garbage_line():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = fig2\nwat\n")
    assert any(p.startswith("line 2:") for p in err.value.problems)


def test_semicolon_is_not_a_comment():
    """Only '#' starts a comment; a ';' line is reported with its line."""
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL_FIG2 + "; note\n")
    assert any(p.startswith("line 6: expected 'key = value'")
               for p in err.value.problems)


def test_canonical_round_trip():
    for text in (MINIMAL_FIG2, DEVICE_SI):
        cfg = parse_config(text)
        again = parse_config(canonical_config(cfg))
        assert again == cfg
        # and canonical text is a fixed point
        assert canonical_config(again) == canonical_config(cfg)


def test_qubit_weights_normalized():
    cfg = parse_config("scenario = fig4\n[model]\nomega_a = 1.8\ng = 0.05\n"
                       "alpha = 2\nc0 = 3\nc1 = 4\n")
    assert (cfg.c0, cfg.c1) == (3.0, 4.0)
    c0, c1 = cfg.qubit_weights
    assert abs(c0 - 0.6) < 1e-15
    assert abs(c1 - 0.8) < 1e-15
    assert isinstance(cfg, RunConfig)


@pytest.mark.parametrize("weight", [1e-200, 1e300])
def test_qubit_weights_normalized_at_extreme_scales(weight):
    # c0*c0 underflows to 0 at 1e-200 and overflows to inf at 1e300
    cfg = parse_config("scenario = fig4\n[model]\nomega_a = 1.8\n"
                       "g = 0.05\nalpha = 2\nc0 = %r\nc1 = %r\n"
                       % (weight, weight))
    c0, c1 = cfg.qubit_weights
    assert abs(c0 - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(c1 - 1.0 / math.sqrt(2.0)) < 1e-15


_finite = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                    allow_infinity=False)


@st.composite
def _config_texts(draw):
    """Random valid configs, dimensionless or SI, in a text form that
    differs from the canonical one (gamma shorthand, omitted defaults,
    unnormalized qubit weights)."""
    lines = []
    si = draw(st.booleans())
    if si:
        scenario = draw(st.sampled_from(("derive-params", "fig2", "sweep")))
        lines += ["scenario = %s" % scenario, "mode = si", "[device]"]
        for key in ("c_j", "c_g"):
            lines.append("%s = %r" % (key, draw(_finite) * 1e-16))
        lines.append("l = %r" % (draw(_finite) * 1e-6))
        lines.append("e_j0_kelvin = %r" % (draw(_finite) * 1e-2))
        if draw(st.booleans()):
            lines.append("v_g = %r" % (draw(_finite) * 1e-3))
        else:
            lines.append("n_g = %r" % draw(_finite))
        lines.append("phi_x = %r" % (draw(_finite) * 1e-16))
        lines.append("convention = %s" % draw(st.sampled_from(
            ("junction_C", "series_C"))))
        lines.append("[model]")
    else:
        scenario = draw(st.sampled_from(("fig2", "oracle-check", "sweep")))
        lines += ["scenario = %s" % scenario, "[model]",
                  "omega_a = %r" % draw(_finite)]
        if draw(st.booleans()):
            lines.append("gamma = %r" % draw(_finite))
        else:
            lines.append("g = %r" % draw(_finite))
        if draw(st.booleans()):
            lines.append("theta = %r" % draw(_finite))
    # fig2 rejects amplitudes that share a file tag
    alphas = st.lists(_finite, min_size=1, max_size=3,
                      unique_by=alpha_tag if scenario == "fig2" else None)
    lines.append("alpha = %s" % ", ".join(repr(a) for a in draw(alphas)))
    lines.append("dim = %d" % draw(st.integers(2, 2000)))
    lines.append("samples = %d" % draw(st.integers(2, 5000)))
    if draw(st.booleans()):
        lines.append("t_max = %r" % draw(_finite))
    if draw(st.booleans()):
        lines.append("c0 = %r" % draw(_finite))
        lines.append("c1 = %r" % draw(_finite))
    lines.append("[run]")
    if draw(st.booleans()):
        lines.append("out = out/%d" % draw(st.integers(0, 99)))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_config_texts(), threads=st.integers(1, 64))
def test_canonical_round_trip_random(text, threads):
    cfg = parse_config(text)
    assert parse_config(canonical_config(cfg)) == cfg
    # run.threads is validated but has no effect on the parsed config
    assert parse_config(text + "threads = %d\n" % threads) == cfg


def test_derive_params_requires_si():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = derive-params\nmode = dimensionless\n"
                     "[model]\nomega_a = 1.8\ng = 0.05\n")
    assert any("derive-params" in p for p in err.value.problems)
