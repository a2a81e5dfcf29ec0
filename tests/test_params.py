import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

import kerrcool as kc
from kerrcool.errors import ConfigError
from kerrcool import params
from kerrcool.params import TAU, bose_occupation, bath_temperature


BASE_DOC = {"f_m": 0.3e6, "gamma_m": 0.5, "kappa": 3e6, "kerr": 0.16e6,
            "g0": 1.7e3, "n_th": 2778}


def test_si_constants_equal_scipy():
    # written out so that importing kerrcool does not import scipy
    assert params.hbar.hex() == hbar.hex()
    assert params.k_B.hex() == k_B.hex()


def test_config_converts_cyclic_to_angular():
    p = kc.params_from_config(BASE_DOC)
    assert p.omega_m == TAU * 0.3e6
    assert p.kappa == TAU * 3e6
    assert p.kerr == TAU * 0.16e6
    assert p.g0 == TAU * 1.7e3
    assert p.n_th == 2778.0


def test_defaults_match_base_document():
    p = kc.default_params()
    assert p.omega_m == TAU * 3.0e5
    assert p.kerr == TAU * 1.6e5
    assert p.n_th == 2778.0
    assert p.gamma_m == TAU * 0.5


def test_zero_kerr_is_valid():
    doc = dict(BASE_DOC, kerr=0)
    assert kc.params_from_config(doc).kerr == 0.0


@pytest.mark.parametrize("key,value", [
    ("kappa", -1), ("kappa", 0), ("f_m", 0), ("gamma_m", -0.5),
    ("kerr", -1e3), ("g0", -1.0), ("n_th", -2),
])
def test_invalid_values_name_the_key(key, value):
    with pytest.raises(ConfigError, match=key):
        kc.params_from_config(dict(BASE_DOC, **{key: value}))


def test_missing_key_is_reported():
    doc = dict(BASE_DOC)
    del doc["kappa"]
    with pytest.raises(ConfigError, match="kappa"):
        kc.params_from_config(doc)
    doc = dict(BASE_DOC)
    del doc["n_th"]
    with pytest.raises(ConfigError, match="n_th"):
        kc.params_from_config(doc)


def test_temperature_alternative_to_n_th():
    doc = dict(BASE_DOC)
    del doc["n_th"]
    doc["temperature_K"] = bath_temperature(TAU * 0.3e6, 2778.0)
    p = kc.params_from_config(doc)
    assert p.n_th == pytest.approx(2778.0, rel=1e-12)


def test_bose_einstein_inverse_pair():
    rng = np.random.default_rng(7)
    for _ in range(200):
        omega = TAU * 10 ** rng.uniform(3, 8)
        n = 10 ** rng.uniform(-3, 6)
        assert bose_occupation(omega, bath_temperature(omega, n)) == pytest.approx(n, rel=1e-10)
    assert bose_occupation(TAU * 1e6, 0.0) == 0.0
    assert bath_temperature(TAU * 1e6, 0.0) == 0.0


def test_bose_occupation_far_below_one_quantum():
    # x = hbar omega / k_B T: 1 / expm1(x) while expm1 is finite (to about
    # x = 709.78), then its limit e^-x, which reaches 0
    omega = TAU * 1e6

    def at(x):
        temp = hbar * omega / (k_B * x)
        return bose_occupation(omega, temp), hbar * omega / (k_B * temp)
    for x in (1e-3, 1.0, 50.0, 700.0, 709.7):
        n, x = at(x)
        assert n == 1.0 / math.expm1(x)
    for x in (709.8, 740.0):
        n, x = at(x)
        assert n == math.exp(-x) > 0.0
    assert at(1e4)[0] == 0.0
    assert bose_occupation(omega, math.inf) == bose_occupation(0.0, 1.0) == math.inf


def test_config_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    for _ in range(500):
        doc = {
            "f_m": 10 ** rng.uniform(2, 9),
            "gamma_m": 10 ** rng.uniform(-3, 1),
            "kappa": 10 ** rng.uniform(3, 9),
            "kerr": 10 ** rng.uniform(0, 7),
            "g0": 10 ** rng.uniform(0, 6),
            "n_th": 10 ** rng.uniform(-2, 5),
        }
        p = kc.params_from_config(doc)
        q = kc.params_from_config(kc.serialize_config(p))
        assert q == p


def test_high_q_assumption_enforced():
    with pytest.raises(ConfigError, match="gamma_m"):
        kc.params_from_config(dict(BASE_DOC, gamma_m=1e7))


def test_ratios_independent_of_unit_system():
    p = kc.params_from_config(BASE_DOC)
    assert p.omega_m / p.kappa == pytest.approx(BASE_DOC["f_m"] / BASE_DOC["kappa"], rel=1e-14)


def test_operating_point_validation():
    with pytest.raises(ConfigError):
        kc.OperatingPoint(detuning=0.0, n_in=-1.0)
    op = kc.OperatingPoint(detuning=-1e6, n_in=0.0)
    assert op.branch_policy is kc.BranchPolicy.LOWER_BRANCH


def test_replace_and_without_kerr():
    p = kc.default_params()
    assert p.without_kerr().kerr == 0.0
    assert p.replace(g0=0.0).g0 == 0.0
    assert p.replace(g0=0.0).kappa == p.kappa
