"""Suite orchestration: counterexample search, identity and tightness
sweeps, replay determinism, and registry coverage."""

import json
import math

import numpy as np
import pytest

from krawbound import verify
from krawbound.bivariate import tau
from krawbound.cube import FOURIER, CubeFunction, lp_norm, walsh_hadamard, weight_table, wht
from krawbound.krawchouk import kraw_moments
from krawbound.numerics import InputError, binary_entropy
from krawbound.verify import (
    SuiteConfig,
    _disc_phi,
    _philox_streams,
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
    assert rec.converged_starts == rec.budget + 1


@pytest.mark.parametrize("seed", [0, 206, 207, 210])
def test_search_converges_at_slow_p_2_5_optimum(seed):
    # the power method nears the optimum 0.75 of (6, 3, 2.5) slowly; at these
    # seeds Boyd's step alone leaves starts still rising at the 500-step cap
    rec = search_extremal_ratio(6, 3, 2.5, budget=200, seed=seed)
    assert rec.converged_starts == rec.budget + 1
    assert abs(rec.best_log2_ratio - 0.75) <= 1e-13


def test_search_reports_lowest_tied_row():
    # many starts reach optima whose values tie the Krawchouk row's to
    # rounding; the reported row is the lowest-index one within 1e-12
    # relative of the maximum, which is the uniform Krawchouk row 0
    rec = search_extremal_ratio(10, 4, 6.0, budget=200, seed=0)
    uniform = 1.0 / math.sqrt(math.comb(10, 4))
    assert len(rec.best_fourier_coeffs) == math.comb(10, 4)
    assert max(abs(v - uniform) for v in rec.best_fourier_coeffs) < 1e-12
    assert rec.best_log2_ratio == pytest.approx(rec.kraw_log2_ratio, rel=1e-12)


@pytest.mark.parametrize("n", range(2, 13))
def test_complement_fold_of_level_s(n):
    # the identities the search's half cube {top bit 0} rests on, on integer
    # level-s coefficients, where the transforms are exact
    rng = np.random.default_rng(n)
    m = 1 << (n - 1)
    for s in range(1, n // 2 + 1):
        level = np.flatnonzero(weight_table(n) == s)
        pos = level & (m - 1)
        # alpha -> alpha' = alpha mod 2^(n-1) is one to one onto levels s - 1
        # and s of n - 1 bits
        live = np.flatnonzero(np.isin(weight_table(n - 1), (s - 1, s)))
        assert np.array_equal(np.sort(pos), live)
        coeffs = np.zeros(2 * m)
        coeffs[level] = rng.integers(-9, 10, level.size)
        f = walsh_hadamard(coeffs)
        # f(x ^ 1...1) = (-1)^s f(x), and f on the half cube is the
        # (n - 1)-bit transform of the coefficients put at alpha'
        assert np.array_equal(f[::-1], (-1) ** s * f)
        half = np.zeros(m)
        half[pos] = coeffs[level]
        assert np.array_equal(walsh_hadamard(half), f[:m])
        # the gradient WHT(g), g = f |f|^(p-2) at p = 3, is on level s twice
        # the (n - 1)-bit transform of g on the half cube at alpha'
        g = f * np.abs(f)
        assert np.array_equal(walsh_hadamard(g)[level], 2.0 * walsh_hadamard(g[:m])[pos])
        # and the half cube's mean of |f|^p is the cube's
        for p in (2.5, 3.0, 6.0, 7.3):
            full_mean, half_mean = np.mean(np.abs(f) ** p), np.mean(np.abs(f[:m]) ** p)
            assert half_mean == pytest.approx(full_mean, rel=1e-14)


def _full_cube_ratio(n, s, p, level_coeffs):
    # log2 E|f|^p / (E f^2)^(p/2) of the level-s coefficients, rebuilt on
    # the whole cube
    coeffs = np.zeros(1 << n)
    coeffs[weight_table(n) == s] = level_coeffs
    f = wht(CubeFunction(n, FOURIER, coeffs))
    return p * math.log2(lp_norm(f, p)) - p * math.log2(lp_norm(f, 2))


@pytest.mark.parametrize("n, s, p", [(6, 3, 2.5), (8, 1, 3.0), (10, 4, 6.0), (12, 6, 4.0)])
def test_search_best_rebuilt_on_the_full_cube(n, s, p):
    rec = search_extremal_ratio(n, s, p, budget=6, seed=4)
    assert len(rec.best_fourier_coeffs) == math.comb(n, s)
    assert math.fsum(v * v for v in rec.best_fourier_coeffs) == pytest.approx(1.0, rel=1e-14)
    ratio = _full_cube_ratio(n, s, p, rec.best_fourier_coeffs)
    assert ratio == pytest.approx(rec.best_log2_ratio, rel=1e-12)


def test_counterexample_artifact_on_the_full_cube(monkeypatch):
    # a bound below the Krawchouk ratio makes every cell a counterexample;
    # its artifact carries all 2^n coefficients, on level s
    n, s, p = 8, 3, 3.0
    low = kraw_moments(n, s, p).log2_ratio - 0.5
    monkeypatch.setattr(verify, "moment_bound", lambda *args: low)
    rec = search_extremal_ratio(n, s, p, budget=6, seed=4)
    art = rec.counterexample
    assert art["bound_log2"] == low and art["log2_ratio"] == rec.best_log2_ratio
    coeffs = np.asarray(art["fourier_coefficients"])
    assert coeffs.size == 1 << n
    assert not coeffs[weight_table(n) != s].any()
    assert tuple(coeffs[weight_table(n) == s]) == rec.best_fourier_coeffs
    ratio = _full_cube_ratio(n, s, p, coeffs[weight_table(n) == s])
    assert ratio == pytest.approx(art["log2_ratio"], rel=1e-12)


def test_philox_streams_match_fresh_generators():
    # the re-keyed generator gives the stream of a fresh Philox(key=[seed, r])
    # for every key, in any order of keys, over three successive draws
    for seed in (0, 5, 2**40, -3):
        stream = _philox_streams(seed)
        for r in (*range(49), 2**63, 7):
            fresh = np.random.Generator(np.random.Philox(key=[seed, r]))
            rng = stream(r)
            assert np.array_equal(rng.standard_normal(7), fresh.standard_normal(7))
            assert np.array_equal(rng.standard_normal(3), fresh.standard_normal(3))
            assert rng.random() == fresh.random()


def test_search_refuses_p_beyond_the_float_range():
    # 2^n C(n, s)^(p/2) bounds the search's sums of |f|^p; past 2^1024 the
    # search is refused rather than returning a NaN ratio
    with pytest.raises(InputError, match="float range"):
        search_extremal_ratio(6, 1, 800.0, budget=20)
    # below it the gradients' sums of squares can still overflow, and those
    # rows are rescaled: no warning, every start converges, and the best is
    # the Krawchouk ratio
    for n, s, p in ((6, 3, 400.0), (6, 1, 500.0), (12, 6, 200.0)):
        rec = search_extremal_ratio(n, s, p, budget=20)
        assert rec.converged_starts == 21
        assert rec.best_log2_ratio == pytest.approx(rec.kraw_log2_ratio, rel=2e-15)
        assert rec.best_log2_ratio <= rec.bound_log2


def test_search_rejects_out_of_range():
    with pytest.raises(InputError):
        search_extremal_ratio(16, 2, 4)
    with pytest.raises(InputError):
        search_extremal_ratio(8, 5, 4)
    with pytest.raises(InputError):
        search_extremal_ratio(8, 2, 1.5)
    with pytest.raises(InputError, match="search_extremal_ratio"):
        search_extremal_ratio(8, 2, math.nan)
    with pytest.raises(InputError):
        search_extremal_ratio(6, 1, 3, budget=-1)


@pytest.mark.parametrize(
    "args, budget", [((6, 1.5, 3), 3), ((6.0, 1, 3), 3), ((6, 1, 3), 2.5), ((6, "1", 3), 3)]
)
def test_search_and_mixtures_reject_non_integers(args, budget):
    with pytest.raises(InputError, match="need integers"):
        search_extremal_ratio(*args, budget=budget)
    with pytest.raises(InputError, match="need integers"):
        degree_at_most_check(*args, budget=budget)


def test_run_suite_budgets():
    grid = {"n": (6,), "p": (3.0,)}
    with pytest.raises(InputError):
        run_suite("extremal-search", grid=grid, budget={"restarts": -1})
    with pytest.raises(InputError):
        run_suite("degree-at-most", budget={"instances": 0})
    # a suite that is no seeded search refuses a budget instead of dropping it
    with pytest.raises(InputError, match="budget"):
        run_suite("edge-iso-sphere", budget={"restarts": 5})
    # and a seed likewise
    with pytest.raises(InputError, match="seed=7"):
        run_suite("tau-symmetry", seed=7)
    # a zero budget means the Krawchouk start alone, not the default
    rep = run_suite("extremal-search", grid=grid, budget={"restarts": 0})
    assert rep.config.budget == {"restarts": 0}
    assert len(rep.cases) == 3 and rep.passed


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("edge-iso-sphere", {"grid": {"n": 40.9, "s": 10.5}}),
        ("tails-sphere", {"grid": {"n": (128.0,)}}),
        ("extremal-search", {"grid": {"n": (6,), "p": (3.0,)}, "budget": {"restarts": 2.7}}),
        ("degree-at-most", {"budget": {"instances": 3.9}}),
        ("extremal-search", {"grid": {"n": (6,), "p": (3.0,)}, "seed": 1.5}),
    ],
)
def test_run_suite_refuses_non_integers(name, kwargs):
    # n, s, the budgets and the seed are refused, not truncated to ints
    with pytest.raises(InputError, match="need integers"):
        run_suite(name, **kwargs)


@pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1, 2**64 - 1, 2**64])
def test_seeds_outside_the_philox_key_range_are_refused(seed):
    # at or above 2^63 numpy takes the key list through float64, and it wraps
    # a negative seed, so these seeds would replay other seeds' streams
    with pytest.raises(InputError, match="seed"):
        run_suite("degree-at-most", seed=seed, budget={"instances": 2})
    with pytest.raises(InputError, match="seed"):
        run_suite("extremal-search", grid={"n": (6,), "p": (3.0,)}, seed=seed, budget={"restarts": 2})
    with pytest.raises(InputError, match="seed"):
        search_extremal_ratio(6, 1, 3.0, budget=2, seed=seed)


def test_largest_seed_keeps_its_stream():
    # the top accepted seed draws from Philox(key=[2^63 - 1, r]), a stream
    # of its own
    top = 2**63 - 1
    stream = _philox_streams(top)
    for r in (0, 1, 200):
        fresh = np.random.Generator(np.random.Philox(key=[top, r]))
        assert np.array_equal(stream(r).standard_normal(5), fresh.standard_normal(5))
    assert search_extremal_ratio(6, 2, 3.0, budget=3, seed=top).seed == top
    top_cases = run_suite("degree-at-most", seed=top, budget={"instances": 3}).payload()["cases"]
    assert top_cases != run_suite("degree-at-most", seed=0, budget={"instances": 3}).payload()["cases"]


def test_run_suite_empty_grid_is_input_error():
    # the s axis keeps only 1 <= s <= n/2, so s = 9 at n = 6 leaves no case
    grid = {"n": (6,), "s": (9,), "p": (3.0,)}
    with pytest.raises(InputError, match="grid selects no cases"):
        run_suite("extremal-search", grid=grid)


def test_search_replay_bit_identical():
    a = search_extremal_ratio(8, 2, 4, budget=20, seed=11)
    b = search_extremal_ratio(8, 2, 4, budget=20, seed=11)
    assert a == b


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


def test_degree_mixtures_are_the_suite_at_one_cell():
    rep = degree_at_most_check(10, 3, 4, budget=1000, seed=5)
    suite = run_suite("degree-at-most", {"n": (10,), "s": (3,), "p": (4,)}, 5, {"instances": 1000})
    assert rep.cases == suite.cases


def test_degree_mixtures_at_large_p():
    # lp_norm keeps |f|^p in range at p = 1000, so no margin reads -inf
    rep = run_suite("degree-at-most", {"n": (6,), "s": (1,), "p": (1000.0,)}, 0, {"instances": 3})
    assert rep.passed and math.isfinite(rep.worst_margin)


def test_degree_mixtures_domain():
    with pytest.raises(InputError):
        degree_at_most_check(20, 3, 4)
    with pytest.raises(InputError, match="degree_at_most_check"):
        degree_at_most_check(8, 2, math.nan)
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


@pytest.mark.parametrize("nv", [64, 1024])
@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.4, 0.5])
def test_disc_phi_is_the_scalar_maximum(nv, sigma):
    # the grid maximum is that of the scalar loop over y = k/n, bit for bit;
    # at eps = 1/2, where log2(1 - 2 eps) = -inf kills every y > 0, the
    # y = 0 term
    eps = [0.05, 0.45, 0.5]
    for ep, disc in zip(eps, _disc_phi(nv, sigma, eps)):
        c, ks = (math.log2(1.0 - 2.0 * ep), range(nv // 2 + 1)) if ep < 0.5 else (0.0, [0])
        want = max(k / nv * c + binary_entropy(k / nv) + 2.0 * tau(sigma, k / nv) - 2.0 for k in ks)
        assert disc.hex() == want.hex()


def test_disc_cont_at_eps_one_half():
    # the grid maximum is its y = 0 term 2 H(sigma) - 2, which is phi(sigma, 1/2)
    rep = run_suite("disc-cont", {"eps": (0.5,)})
    assert rep.passed and len(rep.cases) == 16
    assert rep.measured_constants["disc_cont_n_times_gap"] < 1e-9


@pytest.mark.parametrize("n", [0, -4])
def test_disc_cont_refuses_n_below_one(n):
    with pytest.raises(InputError, match="need n >= 1"):
        run_suite("disc-cont", {"n": (64, n)})


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


@pytest.mark.parametrize("s", [(1,), (0, 2), (2, 2), ()])
def test_hc_sphere_gap_refuses_a_ladder_without_a_slope(s):
    with pytest.raises(InputError, match="two or more distinct s >= 1"):
        run_suite("hc-sphere-gap", {"s": s})


def test_hc_sphere_gap_on_two_rungs():
    rep = run_suite("hc-sphere-gap", {"s": (1, 2)})
    assert rep.passed and len(rep.cases) == 2


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


def test_run_suite_rejects_unknown_axis():
    # the default 576 cases would run, with q recorded in the config
    with pytest.raises(InputError, match="no grid axis q"):
        run_suite("tau-symmetry", grid={"q": (1.0, 2.0)})


def test_run_suite_rejects_tol_without_residual():
    for tag in tightness_tags() + ["extremal-search", "degree-at-most"]:
        with pytest.raises(InputError, match="no residual tolerance"):
            run_suite(tag, tol=1e-300)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
def test_run_suite_rejects_a_tol_not_finite_and_nonnegative(tol):
    # inf would pass every case and nan fail every case, printing bare NaN,
    # which is not JSON
    with pytest.raises(InputError, match="need a finite tol >= 0"):
        run_suite("tau-symmetry", tol=tol)


def test_run_suite_rejects_several_values_on_a_single_value_axis():
    for tag, grid in [
        ("edge-iso-sphere", {"n": (40, 60, 80)}),
        ("edge-iso-sphere", {"s": (8, 10)}),
        ("hc-sphere-gap", {"eps": (0.1, 0.2)}),
        ("ue-sphere-union", {"eps": (0.1, 0.2)}),
        ("ue-sphere-union", {"R": (0.3, 0.5)}),
    ]:
        (axis,) = grid
        with pytest.raises(InputError, match=f"grid axis '{axis}' takes one value"):
            run_suite(tag, grid=grid)
    # one value is accepted, as a sequence or a bare number
    assert run_suite("edge-iso-sphere", grid={"n": (60,), "s": 12}).cases[0].params["n"] == 60


def test_run_suite_takes_numpy_axes():
    # an array is a sequence of values and a numpy scalar one value
    plain = run_suite("tau-symmetry", grid={"x": (0.1, 0.2), "y": (0.3,)})
    given = run_suite("tau-symmetry", grid={"x": np.array([0.1, 0.2]), "y": np.float64(0.3)})
    assert given.cases == plain.cases
    sphere = run_suite("edge-iso-sphere", grid={"n": np.int64(40), "s": np.array([10])})
    assert sphere.cases == run_suite("edge-iso-sphere").cases


def test_payload_excludes_wall_time():
    rep = identity_sweep("u-star")
    assert "wall_time" not in rep.payload()
    assert rep.payload()["pass"] is True


def test_replay_payloads_byte_identical():
    a = run_suite("extremal-search", grid={"n": (8,), "p": (4,)}, seed=11, budget={"restarts": 20})
    b = run_suite("extremal-search", grid={"n": (8,), "p": (4,)}, seed=11, budget={"restarts": 20})
    assert json.dumps(a.payload(), sort_keys=True) == json.dumps(b.payload(), sort_keys=True)
    assert a.wall_time != 0.0


def test_config_roundtrip():
    cfg = SuiteConfig("pi-min", grid={"sigma": (0.1, 0.4, 5)}, tolerances={}, seed=3, budget={})
    assert cfg._asdict()["suite"] == "pi-min"
    assert cfg._asdict()["grid"] == {"sigma": (0.1, 0.4, 5)}
