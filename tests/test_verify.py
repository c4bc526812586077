"""Suite orchestration: counterexample search, identity and tightness
sweeps, replay determinism, and registry coverage."""

import math

import pytest

from krawbound.krawchouk import kraw_moments
from krawbound.numerics import InputError
from krawbound.verify import (
    SuiteConfig,
    all_suite_tags,
    degree_at_most_check,
    identity_sweep,
    identity_tags,
    run_suite,
    search_extremal_ratio,
    tightness_sweep,
    tightness_tags,
)


# ----------------------------------------------------------------- search


def test_search_degree_zero_is_exact():
    rec = search_extremal_ratio(8, 0, 4, budget=3, seed=0)
    assert rec.best_log2_ratio == 0.0
    assert rec.bound_log2 == 0.0
    assert rec.counterexample is None


def test_search_finds_krawchouk_ratio_and_respects_bound():
    rec = search_extremal_ratio(8, 2, 4, budget=50, seed=7)
    kraw = kraw_moments(8, 2, 4).log2_ratio
    assert rec.kraw_log2_ratio == pytest.approx(kraw, abs=1e-12)
    # the uniform-coefficient start is itself feasible, so the search can
    # only do at least as well
    assert rec.best_log2_ratio >= kraw - 1e-9
    assert rec.best_log2_ratio <= rec.bound_log2 + 1e-9
    assert rec.counterexample is None


def test_search_larger_cell_no_violation():
    rec = search_extremal_ratio(10, 3, 3, budget=40, seed=3)
    assert rec.best_log2_ratio <= rec.bound_log2 + 1e-9
    assert rec.counterexample is None
    assert 0 <= rec.converged_starts <= rec.budget + 1


def test_search_rejects_out_of_range():
    with pytest.raises(InputError):
        search_extremal_ratio(16, 2, 4)
    with pytest.raises(InputError):
        search_extremal_ratio(8, 5, 4)
    with pytest.raises(InputError):
        search_extremal_ratio(8, 2, 1.5)
    with pytest.raises(InputError):
        search_extremal_ratio(6, 1, 3, budget=-1)


def test_run_suite_budgets():
    grid = {"n": (6,), "p": (3.0,)}
    with pytest.raises(InputError):
        run_suite("extremal-search", grid=grid, budget={"restarts": -1})
    with pytest.raises(InputError):
        run_suite("degree-at-most", budget={"instances": 0})
    # a zero budget means the Krawchouk start alone, not the default
    rep = run_suite("extremal-search", grid=grid, budget={"restarts": 0})
    assert rep.config.budget == {"restarts": 0}
    assert len(rep.cases) == 3 and rep.passed


def test_run_suite_empty_grid_is_input_error():
    # the s axis keeps only 1 <= s <= n/2, so s = 9 at n = 6 leaves no case
    grid = {"n": (6,), "s": (9,), "p": (3.0,)}
    with pytest.raises(InputError, match="grid selects no cases"):
        run_suite("extremal-search", grid=grid)


def test_search_replay_bit_identical():
    a = search_extremal_ratio(8, 2, 4, budget=20, seed=11)
    b = search_extremal_ratio(8, 2, 4, budget=20, seed=11)
    assert a.to_dict() == b.to_dict()


# --------------------------------------------------------------- mixtures


def test_degree_mixtures_hold_bound():
    rep = degree_at_most_check(10, 3, 4, budget=1000, seed=5)
    assert rep.passed
    assert rep.worst_margin >= -1e-9
    assert len(rep.cases) == 1000
    # instance 0 is the pure top-level mixture, instance 1 sits strictly
    # below the top level; both must hold with room
    assert rep.cases[0].params["instance"] == 0 and rep.cases[0].passed
    assert rep.cases[1].params["instance"] == 1 and rep.cases[1].passed


def test_degree_mixtures_domain():
    with pytest.raises(InputError):
        degree_at_most_check(20, 3, 4)
    for instances in (0, -3):
        with pytest.raises(InputError):
            degree_at_most_check(8, 2, 4, budget=instances)


# ---------------------------------------------------------- identity sweeps


def test_identity_unknown_tag_is_input_error():
    with pytest.raises(InputError):
        identity_sweep("no-such-lemma")


@pytest.mark.parametrize("tag", identity_tags())
def test_identity_default_grids_pass(tag):
    rep = identity_sweep(tag)
    assert rep.passed, f"{tag} worst margin {rep.worst_margin}"
    assert rep.worst_margin >= 0.0 or tag == "disc-cont"


def test_identity_tolerance_override_can_fail():
    rep = identity_sweep("tau-symmetry", tol=1e-30)
    assert not rep.passed


def test_phi_transform_degenerate_support():
    # at sigma = 1/2 both representations vanish identically
    from krawbound.bivariate import phi_transform_check

    for eps in (0.05, 0.2, 0.45):
        rec = phi_transform_check(0.5, eps)
        assert abs(rec.phi_value) < 1e-10
        assert abs(rec.grid_max_value) < 1e-10
    rep = identity_sweep("phi-transform", grid={"sigma": (0.5,), "eps": (0.05, 0.2, 0.45)})
    assert rep.passed


def test_disc_cont_gap_within_one_over_n():
    rep = identity_sweep("disc-cont")
    assert rep.passed
    assert 0.0 < rep.measured_constants["disc_cont_n_times_gap"] <= 1.0


# --------------------------------------------------------- tightness sweeps


def test_tightness_unknown_tag_is_input_error():
    with pytest.raises(InputError):
        tightness_sweep("no-such-theorem")


@pytest.mark.parametrize("tag", tightness_tags())
def test_tightness_default_grids_pass(tag):
    rep = tightness_sweep(tag)
    assert rep.passed, f"{tag} worst margin {rep.worst_margin}"
    for value in rep.measured_constants.values():
        flat = value if isinstance(value, list) else [value]
        for v in flat:
            if isinstance(v, float):
                assert math.isfinite(v)


def test_edge_iso_sphere_constant_small():
    rep = tightness_sweep("edge-iso-sphere")
    assert rep.measured_constants["edge_iso_overshoot_per_i"] <= 10.0


def test_hc_sphere_factor_below_s_three_quarters():
    rep = tightness_sweep("hc-sphere-gap")
    cs = rep.measured_constants["hc_gap_factor_over_s_0.75"]
    assert max(cs) <= 10.0
    # the scaled factor must not explode along the grid
    assert cs[-1] <= cs[0] * 2.0


def test_ue_union_trend_non_exploding():
    rep = tightness_sweep("ue-sphere-union")
    assert rep.measured_constants["trend_non_exploding"]
    for per_log in rep.measured_constants["ue_gap_bits_per_log2n"]:
        assert 0.0 < per_log < 5.0


def test_tails_every_interval_carries_mass():
    rep = tightness_sweep("tails-sphere")
    for case in rep.cases:
        assert case.params["intervals"] == case.params["nonempty"]
    for scaled in rep.measured_constants["between_roots_mass_times_n_2.5"]:
        assert scaled >= 1.0


def test_max_proj_factor_stays_polynomial():
    rep = tightness_sweep("max-proj-roots")
    scaled = rep.measured_constants["max_proj_factor_over_n_2.5"]
    assert scaled[-1] <= max(scaled[0] * 10.0, 1.0)


# ------------------------------------------------------ reports & registry


def test_registry_covers_every_tag():
    assert identity_tags() == sorted(
        [
            "tau-symmetry",
            "psi-two-reps",
            "pi-min",
            "phi-transform",
            "edge-iso-min",
            "phi-eq-F",
            "u-star",
            "disc-cont",
        ]
    )
    assert tightness_tags() == sorted(
        [
            "edge-iso-sphere",
            "hc-sphere-gap",
            "ue-sphere-union",
            "tails-sphere",
            "max-proj-roots",
        ]
    )
    assert set(all_suite_tags()) == set(identity_tags()) | set(tightness_tags()) | {
        "extremal-search",
        "degree-at-most",
    }


def test_run_suite_dispatch_and_unknown():
    assert run_suite("tau-symmetry").passed
    assert run_suite("edge-iso-sphere").passed
    with pytest.raises(InputError):
        run_suite("mystery")


def test_payload_excludes_wall_time():
    rep = identity_sweep("u-star")
    assert "wall_time" not in rep.payload()
    assert "wall_time" in rep.to_dict()
    assert rep.to_dict()["pass"] is True


def test_replay_payloads_byte_identical():
    a = run_suite("extremal-search", grid={"n": (8,), "p": (4,)}, seed=11, budget={"restarts": 20})
    b = run_suite("extremal-search", grid={"n": (8,), "p": (4,)}, seed=11, budget={"restarts": 20})
    assert a.to_json() == b.to_json()
    assert a.wall_time != 0.0


def test_config_roundtrip():
    cfg = SuiteConfig("pi-min", grid={"sigma": (0.1, 0.4, 5)}, seed=3)
    assert cfg.to_dict()["suite"] == "pi-min"
    assert cfg.to_dict()["grid"] == {"sigma": (0.1, 0.4, 5)}
