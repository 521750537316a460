import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immimo import config, device

finite = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)
snr = st.floats(min_value=-10.0, max_value=40.0, allow_nan=False)


def device_lines(preset, g_off, span, gamma, dt_w, n_p, which):
    """Preset alone, or the preset with some explicit overrides."""
    lines = [f"device.preset = {preset}"]
    explicit = {
        "device.g_off_us": g_off,
        "device.g_on_us": g_off + span,
        "device.gamma": gamma,
        "device.dt_w_ns": dt_w,
        "device.n_p": n_p,
    }
    lines += [f"{k} = {v!r}" for k, v in explicit.items() if k in which]
    return lines


def float_list(elements, max_size):
    return st.lists(elements, min_size=1, max_size=max_size).map(
        lambda vs: ", ".join(repr(v) for v in vs))


@st.composite
def config_texts(draw):
    """A config text over every section, and the eval.params value it sets."""
    lo = draw(snr)
    lines = [
        f"mode = {draw(st.sampled_from(config.MODES))}",
        f"seed = {draw(st.integers(0, 2**32))}",
        f"mimo.n_t = {draw(st.integers(1, 4))}",
        "mimo.n_r = 6",
        f"mimo.modulation = {draw(st.sampled_from(['bpsk', 'qpsk', 'qam16']))}",
        f"train.lr = {draw(finite)!r}",
        f"train.weighting = {draw(st.sampled_from(['lnk', 'lnk1']))}",
        f"train.snr_low_db = {lo!r}",
        f"train.snr_high_db = {lo + draw(st.floats(0, 10))!r}",
        f"train.gamma = {draw(unit)!r}",
        f"sweep.snr_db = {draw(float_list(snr, 4))}",
        f"sweep.gammas = {draw(float_list(unit, 3))}",
        f"bounds.varpi1 = {draw(finite)!r}",
        f"bounds.varpi2 = {draw(finite)!r}",
        f"bounds.sigma_n = {draw(finite)!r}",
        f"latency.t_array_ns = {draw(finite)!r}",
        f"latency.t_adder_ns = {draw(finite)!r}",
        f"latency.t_relu_ns = {draw(finite)!r}",
        f"latency.trials = {draw(st.integers(1, 100))}",
    ]
    lines += device_lines(
        draw(st.sampled_from(sorted(device.DEVICE_PRESETS))),
        draw(st.floats(1e-2, 100.0)), draw(st.floats(1e-2, 300.0)), draw(unit),
        draw(st.floats(1e-2, 100.0)), draw(st.integers(1, 512)),
        draw(st.sets(st.sampled_from(["device.g_off_us", "device.g_on_us",
                                      "device.gamma", "device.dt_w_ns", "device.n_p"]))),
    )
    params = draw(st.sampled_from([None, "ckpt/params.npz", "runs/a#1/params.npz"]))
    if params:
        lines.append(f"eval.params = {params}")
    return "\n".join(draw(st.permutations(lines))) + "\n", params


@settings(max_examples=150, deadline=None)
@given(config_texts())
def test_echo_round_trips(case):
    text, params = case
    try:
        cfg = config.parse_config(text)
    except config.ConfigError:
        return  # e.g. explicit g_on below the preset's g_off
    assert cfg.params_path == params
    assert config.parse_config(config.config_echo(cfg)) == cfg


@pytest.mark.parametrize("preset", sorted(device.DEVICE_PRESETS))
def test_echo_round_trips_each_preset(preset):
    cfg = config.parse_config(f"device.preset = {preset}\n")
    assert cfg.device == device.device_preset(preset)
    assert config.parse_config(config.config_echo(cfg)) == cfg


def test_echo_keeps_sections_the_old_echo_dropped():
    cfg = config.parse_config(
        "bounds.varpi1 = 0.1\nlatency.trials = 7\ntrain.weighting = lnk1\n"
    )
    echo = config.config_echo(cfg)
    assert "bounds.varpi1 = 0.1\n" in echo
    assert "latency.trials = 7\n" in echo
    assert "train.weighting = lnk1\n" in echo
    assert "threads" not in echo


def test_echo_writes_every_key_once():
    # the round trip misses a dropped key whenever it holds its default value
    cfg = config.parse_config("eval.params = ckpt/params.npz\n")
    keys = [line.split(" = ")[0] for line in config.config_echo(cfg).splitlines()]
    assert sorted(keys) == sorted(set(config._SCHEMA) - {"device.preset"})


def test_echo_keys_follow_the_schema_order():
    # manifests list their keys in _SCHEMA order, so one cannot drift alone
    cfg = config.parse_config("eval.params = ckpt/params.npz\n")
    keys = [line.split(" = ")[0] for line in config.config_echo(cfg).splitlines()]
    assert keys == [key for key in config._SCHEMA if key != "device.preset"]


@pytest.mark.parametrize("mode", ["latency", "flops"])
def test_single_antenna_latency_mode_is_rejected_at_parse(mode):
    # the row latency bound divides by ln n_t
    with pytest.raises(config.ConfigError, match=f"{mode} mode needs mimo.n_t >= 2"):
        config.parse_config("mimo.n_t = 1\n", {"mode": mode})
    assert config.parse_config("mimo.n_t = 1\n", {"mode": "bounds"}).mode == "bounds"


def test_only_whole_lines_are_comments():
    cfg = config.parse_config(
        "# a comment line\n   # an indented one\nseed = 3\n"
        "eval.params = runs/a#1/params.npz\n"
    )
    assert cfg.seed == 3
    assert cfg.params_path == "runs/a#1/params.npz"
    with pytest.raises(config.ConfigError, match="seed"):
        config.parse_config("seed = 3  # trailing text is part of the value\n")


def test_unknown_and_duplicate_keys_are_rejected():
    with pytest.raises(config.ConfigError, match="unknown key 'threads'"):
        config.parse_config("threads = 2\n")
    with pytest.raises(config.ConfigError, match="duplicate"):
        config.parse_config("seed = 1\nseed = 2\n")


def test_empty_sweep_axes_are_rejected():
    # an empty gamma axis would report no rows after running every detector
    for key in ("sweep.snr_db", "sweep.gammas"):
        with pytest.raises(config.ConfigError, match="nonempty"):
            config.parse_config(f"{key} = \n")
