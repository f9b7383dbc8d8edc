import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from statransport.designer import (
    _exact_tables,
    _term_scales,
    PhysicalUnits,
    TransportSpec,
    build_trajectory,
    endpoint_residuals,
    exact_position,
    load_protocol,
    make_auxiliary,
    rescaled,
    save_protocol,
    verify_boundary_conditions,
)
from statransport.errors import ConsistencyError, SpecError
from statransport.polycalc import MAX_POINTS

freq_lists = st.lists(
    st.floats(min_value=0.3, max_value=3.0), min_size=1, max_size=4
).map(tuple)
specs = st.builds(
    TransportSpec,
    d=st.floats(min_value=-100.0, max_value=100.0).filter(lambda v: abs(v) > 1e-3),
    t_f=st.floats(min_value=0.5, max_value=50.0),
    freqs=freq_lists,
)


def _aux(n):
    return make_auxiliary(TransportSpec(d=1.0, t_f=1.0, freqs=(1.0,) * n))


def test_normalization_integral_exact_values():
    # double integral of the shape over [0, 1], exact rationals
    expected = {
        1: Fraction(1, 420),
        2: Fraction(1, 13860),
        3: Fraction(1, 360360),
        4: Fraction(1, 8314020),
    }
    for n, val in expected.items():
        aux = _aux(n)
        assert aux.delta == val
        # cross-check against the shape polynomial itself
        direct = aux.base.antiderivative().antiderivative()(Fraction(1))
        assert direct == val


def test_boundary_flatness_orders():
    """Shape derivatives vanish identically at both ends through order 2N-1."""
    for n in range(1, 5):
        res = verify_boundary_conditions(_aux(n))
        for k in range(2 * n):
            assert res[k] == (0, 0)
        lo, hi = res[2 * n]
        assert lo != 0 and hi != 0


def test_shape_is_odd_about_midpoint():
    for n in range(1, 5):
        g = _aux(n).base
        assert g(Fraction(1, 4)) == -g(Fraction(3, 4))
        assert g(Fraction(1, 2)) == 0


@given(specs)
def test_endpoints_structurally_clean(spec):
    p = build_trajectory(spec)
    res = endpoint_residuals(p)
    # start position, start velocity, end velocity: identically zero terms
    assert res["x_start"] == 0.0
    assert res["v_start"] == 0.0
    assert res["v_end"] == 0.0
    # end position: only the top term survives, a couple of ulps of d
    assert abs(res["x_end"]) <= 1e-13 * max(abs(spec.d), 1.0)


@given(specs, st.fractions(min_value=0, max_value=1))
def test_reflection_symmetry(spec, s):
    # x0(s) + x0(1-s) = d holds term by term in the rational form
    p = build_trajectory(spec)
    total = exact_position(p, s) + exact_position(p, Fraction(1) - s)
    err = float(total - Fraction(spec.d))
    assert abs(err) <= 1e-13 * max(abs(spec.d), 1.0)


def _horner_residuals(protocol):
    """endpoint_residuals with every term polynomial evaluated by Fraction Horner."""
    dspec = protocol.dspec
    scales = _term_scales(protocol.aux, protocol.pj, dspec.t_f)
    tf2 = Fraction(dspec.t_f) ** 2
    x_start = v_start = v_end = x_end = Fraction(0)
    for c, (_, vterm, xterm) in zip(scales, _exact_tables(protocol.aux.n_points)):
        fc = Fraction(c)
        x_start += fc * xterm(Fraction(0))
        x_end += fc * xterm(Fraction(1))
        v_start += fc * vterm(Fraction(0))
        v_end += fc * vterm(Fraction(1))
    return {
        "x_start": float(tf2 * x_start),
        "x_end": float(tf2 * x_end - Fraction(dspec.d)),
        "v_start": float(tf2 * v_start),
        "v_end": float(tf2 * v_end),
    }


def test_endpoint_residuals_match_horner():
    rng = np.random.default_rng(11)
    for n in range(1, MAX_POINTS + 1):
        for _ in range(5):
            spec = TransportSpec(
                d=float(rng.uniform(-100.0, 100.0)),
                t_f=float(rng.uniform(0.5, 50.0)),
                freqs=tuple(float(f) for f in rng.uniform(0.3, 3.0, size=n)),
            )
            p = build_trajectory(spec)
            assert endpoint_residuals(p) == _horner_residuals(p)


def test_collapsed_polynomials_track_design():
    # float evaluation of the collapsed x0/v0 carries a little noise but
    # must stay well inside 1e-8 of the designed endpoints
    spec = TransportSpec(d=7.5, t_f=11.0, freqs=(0.9, 1.1, 1.3))
    p = build_trajectory(spec)
    assert abs(p.x0(0.0)) <= 1e-8 * abs(spec.d)
    assert abs(p.x0(1.0) - spec.d) <= 1e-8 * abs(spec.d)
    assert abs(p.v0(0.0)) * spec.t_f <= 1e-8 * abs(spec.d)
    assert abs(p.v0(1.0)) * spec.t_f <= 1e-8 * abs(spec.d)


def test_derivative_chain_bit_exact():
    spec = TransportSpec(d=3.7, t_f=11.0, freqs=(0.9, 1.1, 1.3))
    p = build_trajectory(spec)
    assert p.v0.coeffs == p.x0.derivative().scale(1.0 / spec.t_f).coeffs
    assert p.a0.coeffs == p.x0.derivative(2).scale(1.0 / spec.t_f ** 2).coeffs


def test_sample_shapes_and_units():
    p = build_trajectory(TransportSpec(d=2.0, t_f=4.0, freqs=(1.0, 1.2)))
    t, x, v, a = p.sample(101)
    assert t.shape == x.shape == v.shape == a.shape == (101,)
    assert t[0] == 0.0 and t[-1] == 4.0
    assert x[0] == pytest.approx(0.0, abs=1e-12)
    assert x[-1] == pytest.approx(2.0, rel=1e-9)


def test_serialization_roundtrip(tmp_path):
    spec = TransportSpec(d=-4.2, t_f=9.0, freqs=(0.85, 1.0, 1.15))
    p = build_trajectory(spec)
    path = tmp_path / "protocol.json"
    save_protocol(p, path)
    q = load_protocol(path)
    assert q.x0.coeffs == p.x0.coeffs
    assert q.v0.coeffs == p.v0.coeffs
    assert q.a0.coeffs == p.a0.coeffs
    assert q.spec == p.spec
    assert q.aux.delta == p.aux.delta


def test_load_rejects_tampered_data(tmp_path):
    p = build_trajectory(TransportSpec(d=1.0, t_f=3.0, freqs=(1.0, 1.1)))
    path = tmp_path / "protocol.json"
    save_protocol(p, path)

    data = json.loads(path.read_text())
    data["N"] = 3
    bad = tmp_path / "bad_n.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ConsistencyError):
        load_protocol(bad)

    data = json.loads(path.read_text())
    data["delta"] = "1/999"
    bad2 = tmp_path / "bad_delta.json"
    bad2.write_text(json.dumps(data))
    with pytest.raises(ConsistencyError):
        load_protocol(bad2)


def test_rescaled_distance_is_linear():
    p = build_trajectory(TransportSpec(d=5.0, t_f=6.0, freqs=(0.95, 1.05)))
    q = rescaled(p, d=10.0)
    # doubling d scales every coefficient by exactly two
    assert np.array_equal(np.array(q.x0.coeffs), 2.0 * np.array(p.x0.coeffs))
    r = rescaled(p, t_f=12.0)
    assert r.spec.t_f == 12.0 and r.spec.d == 5.0


def test_zero_distance_designs_zero_trajectory():
    p = build_trajectory(TransportSpec(d=0.0, t_f=3.0, freqs=(1.0,)))
    assert p.x0.coeffs == (0.0,)
    assert p.position(1.5) == 0.0


def test_spec_validation():
    with pytest.raises(SpecError):
        TransportSpec(d=1.0, t_f=3.0, freqs=())
    with pytest.raises(SpecError):
        TransportSpec(d=1.0, t_f=3.0, freqs=(1.0, -0.5))
    with pytest.raises(SpecError):
        TransportSpec(d=1.0, t_f=0.0, freqs=(1.0,))
    with pytest.raises(SpecError):
        TransportSpec(d=float("inf"), t_f=1.0, freqs=(1.0,))
    with pytest.raises(SpecError):
        build_trajectory(TransportSpec(d=1.0, t_f=3.0, freqs=(1.0,) * 9))


def test_exact_position_domain():
    p = build_trajectory(TransportSpec(d=1.0, t_f=3.0, freqs=(1.0,)))
    with pytest.raises(SpecError):
        exact_position(p, Fraction(3, 2))


def test_physical_units_pipeline():
    from scipy import constants

    units = PhysicalUnits(mass_kg=39.9626 * constants.atomic_mass,
                          omega_ref=2.0 * np.pi * 1.41e6)
    a0 = units.length_scale
    d_m = 30000.0 * a0
    tf_s = 2.5 * np.pi / units.omega_ref
    spec = TransportSpec(d=d_m, t_f=tf_s, freqs=(units.omega_ref,), units=units)
    p = build_trajectory(spec)

    dspec = spec.dimensionless()
    assert dspec.d == pytest.approx(30000.0, rel=1e-12)
    assert dspec.t_f == pytest.approx(2.5 * np.pi, rel=1e-12)
    assert dspec.freqs[0] == pytest.approx(1.0, rel=1e-12)
    # position() answers in meters at physical times
    assert p.position(tf_s) == pytest.approx(d_m, rel=1e-9)
    assert p.position(0.0) == pytest.approx(0.0, abs=1e-12 * d_m)
    # velocity scale sanity: peak speed within a small multiple of d/tf
    t, x, v, a = p.sample(501)
    assert np.max(np.abs(v)) < 5.0 * d_m / tf_s


def test_physical_units_validation():
    with pytest.raises(SpecError):
        PhysicalUnits(mass_kg=-1.0, omega_ref=1.0)
    with pytest.raises(SpecError):
        PhysicalUnits(mass_kg=1.0, omega_ref=0.0)
