import pytest

from lanegame.styles import (AGGRESSIVE, BUILTIN_STYLES, CONSERVATIVE, NORMAL,
                             STEER_TRANSMISSION, style_profile)

TABLE = {
    "aggressive": dict(t_d=0.14, t_p=1.02, g_s_wheel=0.84, a=0.24,
                       weights=(0.10, 0.10, 0.80), v_factor=0.95),
    "normal": dict(t_d=0.18, t_p=0.94, g_s_wheel=0.75, a=0.23,
                   weights=(0.50, 0.30, 0.20), v_factor=0.60),
    "conservative": dict(t_d=0.24, t_p=0.83, g_s_wheel=0.62, a=0.22,
                         weights=(0.70, 0.20, 0.10), v_factor=0.30),
}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_profile_values(name):
    p = style_profile(name)
    ref = TABLE[name]
    assert p.name == name
    assert p.driver.t_d == ref["t_d"]
    assert p.driver.t_p == ref["t_p"]
    assert p.driver.a == ref["a"]
    # Stored gain carries the steering transmission fold.
    assert p.driver.g_s == pytest.approx(ref["g_s_wheel"] * STEER_TRANSMISSION)
    assert (p.w_ds, p.w_rc, p.w_pe) == ref["weights"]
    assert p.v_factor == ref["v_factor"]


def test_weights_are_convex():
    for p in (AGGRESSIVE, NORMAL, CONSERVATIVE):
        weights = (p.w_ds, p.w_rc, p.w_pe)
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)


def test_style_orderings():
    a, n, c = AGGRESSIVE, NORMAL, CONSERVATIVE
    assert a.driver.t_d < n.driver.t_d < c.driver.t_d
    assert a.driver.t_p > n.driver.t_p > c.driver.t_p
    assert a.driver.g_s > n.driver.g_s > c.driver.g_s
    assert a.w_pe > n.w_pe > c.w_pe
    assert a.w_ds < n.w_ds < c.w_ds
    assert a.v_factor > n.v_factor > c.v_factor


def test_lookup_rejects_unknown():
    with pytest.raises(KeyError, match="aggressive"):
        style_profile("reckless")
    assert set(BUILTIN_STYLES) == set(TABLE)
