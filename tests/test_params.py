import math

import pytest

from sshscatter import (
    CouplingConfig,
    EmitterParams,
    Variant,
    WaveguideParams,
    validate,
)
from sshscatter.errors import UnsupportedFeatureError, ValidationError
from sshscatter.params import bundle_from_dict


def test_hoppings_from_dimerization():
    wg = WaveguideParams(delta=0.5)
    assert wg.t1 == 1.5
    assert wg.t2 == 0.5


def test_hoppings_negative_delta():
    wg = WaveguideParams(delta=-0.5)
    assert wg.t1 == 0.5
    assert wg.t2 == 1.5


def test_delta_sign_swap_exchanges_hoppings():
    for delta in (0.1, 0.37, 0.99):
        plus = WaveguideParams(delta=delta)
        minus = WaveguideParams(delta=-delta)
        assert plus.t1 == minus.t2
        assert plus.t2 == minus.t1
        assert plus.t1 + plus.t2 == 2.0 * plus.J


def test_delta_out_of_range_rejected():
    with pytest.raises(ValidationError, match="delta"):
        validate(WaveguideParams(delta=1.5), EmitterParams(omega_e=1.5), CouplingConfig(Variant.A))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["J", "omega_e", "delta_c", "omega_rabi", "g"])
def test_non_finite_energy_rejected_by_name(field, value):
    with pytest.raises(ValidationError, match=rf"^{field} out of range: .*finite"):
        bundle_from_dict({field: value})


def test_nonzero_onsite_energy_rejected():
    wg = WaveguideParams(delta=0.5, omega0=0.1)
    with pytest.raises(UnsupportedFeatureError):
        validate(wg, EmitterParams(omega_e=1.5), CouplingConfig(Variant.A))


def test_metastable_energy_derived():
    em = EmitterParams(omega_e=1.5, delta_c=0.3)
    assert em.omega_a == 1.2


def test_variant_pins_alpha():
    assert CouplingConfig(Variant.A).alpha == 1.0
    assert CouplingConfig(Variant.B).alpha == 0.0
    assert CouplingConfig(Variant.AB).alpha == 0.5
    with pytest.raises(ValidationError, match="alpha"):
        validate(
            WaveguideParams(delta=0.5),
            EmitterParams(omega_e=1.5),
            CouplingConfig(Variant.A, 0.5),
        )
    with pytest.raises(ValidationError, match="alpha"):
        validate(
            WaveguideParams(delta=0.5),
            EmitterParams(omega_e=1.5),
            CouplingConfig(Variant.AB, 1.0),
        )


def test_coupling_split():
    cfg = CouplingConfig(Variant.AB, 0.25)
    g1, g2 = cfg.couplings(0.2)
    assert g1 == pytest.approx(0.05)
    assert g2 == pytest.approx(0.15)


def test_out_of_band_emitter_is_flagged_not_rejected():
    bundle = validate(
        WaveguideParams(delta=0.5),
        EmitterParams(omega_e=0.3),
        CouplingConfig(Variant.A),
    )
    assert bundle.notes
    assert "omega_e" in bundle.notes[0]


def test_bundle_from_dict_defaults_and_rejects_unknown(tmp_path):
    bundle = bundle_from_dict({"delta": -0.5, "config": "AB", "alpha": 0.3})
    assert bundle.waveguide.delta == -0.5
    assert bundle.coupling.variant is Variant.AB
    assert bundle.coupling.couplings(bundle.emitter.g)[0] == pytest.approx(0.2 * 0.3)
    with pytest.raises(ValidationError, match="config"):
        bundle_from_dict({"config": "C"})
    with pytest.raises(ValidationError, match="x1"):
        bundle_from_dict({"x1": 5.5})
