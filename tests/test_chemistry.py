import json

import numpy as np
import pytest

from hypbo import ConstraintSyntaxError, hypothesis_from_dict
from hypbo.chemistry import (
    COMPONENTS,
    DEFAULT_STEPS,
    HERDataset,
    HYPOTHESIS_KINDS,
    ParseError,
    RangeError,
    SchemaError,
    chemistry_hypotheses,
    component_space,
    fit_oracle,
    generate_standin_dataset,
    load_csv,
    standin_response,
    total_volume_hypothesis,
    write_csv,
)


def vec(**overrides):
    """Composition vector: catalyst at 3 mg, everything else absent."""
    base = dict.fromkeys(COMPONENTS, 0.0)
    base["P10"] = 3.0
    base.update(overrides)
    return np.array([base[c] for c in COMPONENTS])


def test_component_space_layout():
    sp = component_space()
    assert sp.dim == 10
    assert tuple(sp.names) == COMPONENTS
    assert sp.lower[0] == 1.0 and sp.upper[0] == 5.0
    np.testing.assert_array_equal(sp.lower[1:], np.zeros(9))
    np.testing.assert_array_equal(sp.upper[1:], np.full(9, 5.0))


# -- CSV ingestion ---------------------------------------------------

def write_rows(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


GOOD_HEADER = list(COMPONENTS) + ["HER"]


def test_load_csv_roundtrip(tmp_path):
    d = generate_standin_dataset(15, np.random.default_rng(2))
    path = tmp_path / "her.csv"
    write_csv(d, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.compositions, d.compositions)
    np.testing.assert_array_equal(back.her, d.her)
    np.testing.assert_array_equal(back.steps, DEFAULT_STEPS)


def test_load_csv_any_column_order(tmp_path):
    path = tmp_path / "shuffled.csv"
    header = ["HER", "Cys", "P10"] + [c for c in COMPONENTS if c not in ("P10", "Cys")]
    row = {c: 0.0 for c in COMPONENTS}
    row.update(P10=2.0, Cys=1.5)
    write_rows(path, header, [[1.25 if h == "HER" else row[h] for h in header]])
    d = load_csv(path)
    np.testing.assert_array_equal(d.compositions[0], vec(P10=2.0, Cys=1.5))
    assert d.her[0] == 1.25


def test_load_csv_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    header = [c for c in GOOD_HEADER if c != "Cys"]  # missing column
    write_rows(path, header, [[1.0] * len(header)])
    with pytest.raises(SchemaError, match="Cys"):
        load_csv(path)
    path2 = tmp_path / "extra.csv"
    write_rows(path2, GOOD_HEADER + ["Temp"], [[1.0] * 12])
    with pytest.raises(SchemaError, match="Temp"):
        load_csv(path2)
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError, match="empty"):
        load_csv(empty)


def test_load_csv_range_errors(tmp_path):
    path = tmp_path / "low_p10.csv"
    write_rows(path, GOOD_HEADER, [list(vec(P10=0.5)) + [1.0]])
    with pytest.raises(RangeError, match="P10") as err:
        load_csv(path)
    assert err.value.row == 0 and err.value.value == 0.5

    path2 = tmp_path / "neg_her.csv"
    write_rows(path2, GOOD_HEADER, [list(vec()) + [-0.2]])
    with pytest.raises(RangeError, match="HER"):
        load_csv(path2)

    path3 = tmp_path / "high_cys.csv"
    write_rows(path3, GOOD_HEADER, [list(vec(Cys=5.5)) + [1.0]])
    with pytest.raises(RangeError, match="Cys"):
        load_csv(path3)


def test_load_csv_parse_errors(tmp_path):
    path = tmp_path / "text.csv"
    write_rows(path, GOOD_HEADER, [list(vec())[:-1] + ["plenty", 1.0]])
    with pytest.raises(ParseError):
        load_csv(path)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(",".join(GOOD_HEADER) + "\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 0"):
        load_csv(ragged)


def test_steps_sidecar(tmp_path):
    d = generate_standin_dataset(12, np.random.default_rng(3))
    path = tmp_path / "her.csv"
    write_csv(d, path)
    (tmp_path / "her.csv.steps.json").write_text(json.dumps({"P10": 1.0, "Cys": 0.5}))
    back = load_csv(path)
    assert back.steps[0] == 1.0
    assert back.steps[1] == 0.5
    np.testing.assert_array_equal(back.steps[2:], DEFAULT_STEPS[2:])
    # explicit argument beats the sidecar
    forced = load_csv(path, steps=DEFAULT_STEPS)
    np.testing.assert_array_equal(forced.steps, DEFAULT_STEPS)


def test_steps_sidecar_validation(tmp_path):
    d = generate_standin_dataset(12, np.random.default_rng(3))
    path = tmp_path / "her.csv"
    write_csv(d, path)
    (tmp_path / "her.csv.steps.json").write_text(json.dumps({"Helium": 1.0}))
    with pytest.raises(SchemaError, match="Helium"):
        load_csv(path)
    (tmp_path / "her.csv.steps.json").write_text(json.dumps({"P10": -1.0}))
    with pytest.raises(ValueError, match="positive"):
        load_csv(path)


def test_herdataset_validation():
    with pytest.raises(SchemaError):
        HERDataset(np.zeros((3, 9)), np.zeros(3), DEFAULT_STEPS)
    with pytest.raises(ValueError, match="row counts"):
        HERDataset(np.tile(vec(), (3, 1)), np.zeros(2), DEFAULT_STEPS)
    with pytest.raises(RangeError):
        HERDataset(np.tile(vec(), (2, 1)), [1.0, np.inf], DEFAULT_STEPS)


# -- oracle ----------------------------------------------------------

@pytest.fixture(scope="module")
def standin_split():
    d = generate_standin_dataset(250, np.random.default_rng(7))
    train = HERDataset(d.compositions[:200], d.her[:200], d.steps)
    return train, d.compositions[200:], d.her[200:]


@pytest.fixture(scope="module")
def oracle(standin_split):
    train, _, _ = standin_split
    return fit_oracle(train, np.random.default_rng(0), budget=5, max_evals=300)


def test_oracle_init_lengthscales_follow_steps(oracle):
    sp = component_space()
    np.testing.assert_allclose(oracle.init_lengthscales, DEFAULT_STEPS / sp.span)


def test_oracle_generalizes_to_held_out_rows(standin_split, oracle):
    """Held-out RMSE should sit near the generator noise (sd 0.1), and
    certainly within three times it."""
    _, test_x, test_y = standin_split
    pred = np.array([oracle(c) for c in test_x])
    rmse = float(np.sqrt(np.mean((pred - test_y) ** 2)))
    assert rmse <= 0.3


def test_oracle_interpolates_training_rows(standin_split, oracle):
    train, _, _ = standin_split
    sd = np.sqrt(oracle.gp.params.noise_variance)
    pred = np.array([oracle(c) for c in train.compositions[:50]])
    assert np.all(np.abs(pred - train.her[:50]) <= 3.0 * sd + 1e-6)


def test_oracle_learns_noise_from_duplicates():
    base = generate_standin_dataset(20, np.random.default_rng(11), noise_sd=0.0)
    comp = np.repeat(base.compositions[:6], 2, axis=0)
    delta = 0.1
    her = np.maximum(standin_response(comp) + np.tile([delta, -delta], 6), 0.0)
    d = HERDataset(comp, her, base.steps)
    oracle = fit_oracle(d, np.random.default_rng(0), budget=5, max_evals=300)
    # within-pair sample variance is 2*delta^2; the fit must attribute
    # at least half of it to observation noise
    assert oracle.gp.params.noise_variance >= delta**2


def test_oracle_is_deterministic(standin_split):
    train, test_x, _ = standin_split
    a = fit_oracle(train, np.random.default_rng(5), budget=2, max_evals=100)
    b = fit_oracle(train, np.random.default_rng(5), budget=2, max_evals=100)
    assert a(test_x[0]) == b(test_x[0])


def test_oracle_evaluate_validation(oracle):
    with pytest.raises(ValueError, match="10 entries"):
        oracle(np.zeros(9))
    with pytest.raises(ValueError, match="outside"):
        oracle(vec(P10=0.5))
    assert np.isfinite(oracle(vec(P10=1.0)))  # all-minimum corner


def test_fit_oracle_needs_rows():
    d = generate_standin_dataset(10, np.random.default_rng(0))
    solo = HERDataset(d.compositions[:1], d.her[:1], d.steps)
    with pytest.raises(ValueError, match="at least 2"):
        fit_oracle(solo)


# -- hypothesis libraries --------------------------------------------

def test_what_they_knew_examples():
    (h,) = chemistry_hypotheses("what_they_knew")
    assert h.contains(vec(P10=5.0, Cys=2.0))
    assert not h.contains(vec(P10=4.0, Cys=2.0))   # catalyst pinned at 5 mg
    assert not h.contains(vec(P10=5.0, Cys=0.5))   # scavenger below range
    assert not h.contains(vec(P10=5.0, Cys=2.0, NaOH=3.5))


def test_virtual_chemists_examples():
    chemists = {h.label: h for h in chemistry_hypotheses("virtual_chemists")}
    assert len(chemists) == 9
    assert chemists["Dye Fanatic"].contains(vec(MB=2.0, AR87=2.0))
    assert not chemists["Dye Fanatic"].contains(vec(MB=1.0))
    assert chemists["Halophobe"].contains(vec())
    assert not chemists["Halophobe"].contains(vec(NaCl=1.0))
    assert chemists["Scavenger Obsessive"].contains(vec(Cys=4.5))
    assert not chemists["Scavenger Obsessive"].contains(vec(Cys=3.5))
    assert chemists["Dye Sceptic"].contains(vec(Cys=3.0))
    assert not chemists["Dye Sceptic"].contains(vec(RB=0.25))


def test_all_kinds_construct_and_certify():
    rng = np.random.default_rng(0)
    for kind in HYPOTHESIS_KINDS:
        for h in chemistry_hypotheses(kind):
            x = h.sample_uniform(rng)
            assert h.contains(x)
    with pytest.raises(KeyError):
        chemistry_hypotheses("optimists")


def test_unknown_component_name_is_syntax_error():
    spec = {"label": "typo", "constraints": [{"terms": {"NaCI": 1.0}, "op": "<=", "rhs": 1.0}]}
    with pytest.raises(ConstraintSyntaxError, match="typo: unknown axis 'NaCI'"):
        hypothesis_from_dict(spec, component_space())


def test_hindsight_and_bizarro_are_disjoint():
    (ph,) = chemistry_hypotheses("perfect_hindsight")
    (bw,) = chemistry_hypotheses("bizarro_world")
    rng = np.random.default_rng(1)
    draws = component_space().sample(rng, 100_000)
    both = ph.contains_many(draws) & bw.contains_many(draws)
    assert not both.any()
    # and directly: each one's own samples violate the other
    for _ in range(50):
        assert not bw.contains(ph.sample_uniform(rng))
        assert not ph.contains(bw.sample_uniform(rng))


def test_total_volume_hypothesis():
    h = total_volume_hypothesis(5.0)
    assert h.contains(vec(Cys=2.0, NaOH=3.0))
    assert not h.contains(vec(Cys=3.0, NaOH=3.0))
    assert h.contains(vec(P10=5.0, Cys=5.0))  # catalyst mass is not volume


@pytest.mark.parametrize("limit", [0.01, 20.0, 45.0])
def test_total_volume_certifies_with_its_own_sampler(limit):
    # at 0.01 mL the region is far below 1e-20 of the box: only the
    # simplex sampler can certify it; 20 mL exercises the thinning step
    # and 45 mL the whole-box shortcut
    h = total_volume_hypothesis(limit)
    rng = np.random.default_rng(0)
    draws = np.array([h.sample_uniform(rng) for _ in range(200)])
    assert np.all(h.contains_many(draws))
    assert np.all(draws[:, 1:].sum(axis=1) <= limit * (1 + 1e-12))


# -- stand-in generator ----------------------------------------------

def test_standin_response_hand_value():
    x = vec(Cys=2.5, NaOH=1.25, NaCl=0.75, NaDS=0.75)
    # every bump at its center: 1.5 + 1.2 + 0.4 + 0.4 + 0.2, no dye or
    # surfactant attenuation, catalyst halfway up its range
    assert standin_response(x)[0] == pytest.approx(0.6 + 0.45 + 3.7, abs=1e-12)


def test_standin_response_dye_attenuation():
    clean = standin_response(vec(Cys=2.5))[0]
    dyed = standin_response(vec(Cys=2.5, MB=2.0, RB=2.0))[0]
    assert dyed < clean
    surf = standin_response(vec(Cys=2.5, SDS=2.0))[0]
    assert dyed < surf < clean


def test_generate_standin_dataset_properties():
    d = generate_standin_dataset(200, np.random.default_rng(0))
    assert len(d) == 200
    assert np.all(d.her >= 0.0)
    # grid snapping: every value is an integer number of steps from the floor
    offsets = (d.compositions - component_space().lower) / DEFAULT_STEPS
    np.testing.assert_allclose(offsets, np.round(offsets), atol=1e-9)
    # zero inflation leaves plenty of dye-free rows
    dye_free = np.all(d.compositions[:, 2:5] == 0.0, axis=1)
    assert dye_free.mean() > 0.1
    # heavy dye loading should visibly depress the measured rates
    dyes = d.compositions[:, 2:5].sum(axis=1)
    assert d.her[dyes > 3.0].mean() < d.her[dye_free].mean()


def test_generate_standin_dataset_deterministic():
    a = generate_standin_dataset(40, np.random.default_rng(9))
    b = generate_standin_dataset(40, np.random.default_rng(9))
    np.testing.assert_array_equal(a.compositions, b.compositions)
    np.testing.assert_array_equal(a.her, b.her)


def test_generate_standin_dataset_minimum_rows():
    with pytest.raises(ValueError, match="10"):
        generate_standin_dataset(5, np.random.default_rng(0))
