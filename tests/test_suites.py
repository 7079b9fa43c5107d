import dataclasses
import functools

import numpy as np
import pytest

from coneq import (
    charts,
    core,
    exact,
    metrics,
    quotients,
    SUITES,
    ConePoint,
    CVector,
    NotIsotropicError,
    QuadricError,
    Signature,
    make_rng,
    run_many,
    run_suite,
    sample_cone_point,
    suite_names,
    suites,
)
from coneq.suites import SuiteDef

SIG11 = Signature(1, 1)
SIG22 = Signature(2, 2)
ALL_SIGNATURES = [Signature(p, q) for p in range(1, 6) for q in range(1, 6)]
CHART_SUITES = ["metric-scaling", "radical", "lift-independence", "cometric-rank",
                "kappa-roundtrip", "chart-domain", "aperp-partition"]
RAY_SUITES = ["cross-section", "phase-retraction", "u1-action", "conformal-class",
              "skew-form"]


def test_registry_is_well_formed():
    names = suite_names()
    assert len(names) == len(set(names)) == len(SUITES)
    for defn in SUITES.values():
        assert defn.trials > 0
        assert defn.tol >= 0.0
        assert defn.description


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_single_signature_report():
    reports = run_suite("hermitian", SIG22, trials=20, seed=4)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.ok
    assert rep.suite == "hermitian"
    assert rep.signature == "(2,2)"
    assert (rep.passes, rep.failures, rep.trials) == (20, 0, 20)
    assert rep.counterexample is None


def test_skew_form_pairing_identity():
    # The seed where max_pairing is 0.486 < 0.5 on valid data.
    rep = run_suite("skew-form", Signature(3, 3), seed=322345719)[0]
    assert (rep.passes, rep.failures) == (rep.trials, 0)


@pytest.mark.parametrize("trials", [0, -2])
def test_fewer_than_one_trial_is_rejected(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_suite("hermitian", SIG22, trials=trials)


def test_default_battery_expansion():
    reports = run_suite("cross-section", trials=5)
    assert [rep.signature for rep in reports] == \
        ["(1,1)", "(1,2)", "(2,2)", "(2,3)", "(3,3)"]


def test_global_suites_ignore_signature():
    reports = run_suite("field-axioms", trials=10)
    assert len(reports) == 1
    assert reports[0].signature == "-"
    assert reports[0].ok


@pytest.mark.parametrize("name", suite_names())
def test_deterministic_across_runs(name):
    first = run_suite(name, SIG22, trials=5, seed=2)[0].to_json()
    second = run_suite(name, SIG22, trials=5, seed=2)[0].to_json()
    del first["elapsed_seconds"], second["elapsed_seconds"]
    assert first == second


def test_raising_trial_fails_only_itself(monkeypatch):
    calls = []

    def trial(sig, rng, tol):
        calls.append(sig)
        if len(calls) == 2:
            raise NotIsotropicError("planted")
        return True, 0.0, {}

    monkeypatch.setitem(SUITES, "raises-once",
                        SuiteDef(trial, 4, 0.0, "trial 1 raises"))
    rep = run_suite("raises-once", SIG22)[0]
    assert (rep.passes, rep.failures, len(calls)) == (3, 1, 4)
    assert rep.worst_residual == float("inf")
    assert rep.counterexample == {"trial": 1, "residual": float("inf"),
                                  "error": "NotIsotropicError",
                                  "message": "planted"}


def test_failure_reports_counterexample():
    # --tol tightens the kappa0 certificates below their 1e-10 too.
    rep = run_suite("kappa-roundtrip", SIG22, trials=5, seed=0, tol=1e-30)[0]
    assert not rep.ok
    assert rep.failures > 0
    assert rep.counterexample["check"] == "f(k, k) = 0 and f(x, k) = 1"
    assert rep.worst_residual > 1e-30


def test_json_shape():
    rep = run_suite("hermitian", SIG22, trials=3)[0]
    data = rep.to_json()
    assert list(data) == [
        "suite", "signature", "seed", "trials", "passes", "failures",
        "worst_residual", "elapsed_seconds", "counterexample",
    ]


def test_run_many_covers_requested_names():
    reports = run_many(["hermitian", "field-axioms"], SIG22, trials=5)
    assert {rep.suite for rep in reports} == {"hermitian", "field-axioms"}


def test_every_suite_passes_at_reduced_trials():
    reports = run_many(suite_names(), None, trials=5, seed=0)
    bad = [rep for rep in reports if not rep.ok]
    assert bad == [], [
        (rep.suite, rep.signature, rep.counterexample) for rep in bad
    ]


@pytest.mark.parametrize("name", suite_names())
def test_one_generator_per_trial(name, monkeypatch):
    # Trial k enters with make_rng(3, 2, 2, k)'s fresh state, or, when it opens
    # with a cone point, that point and the state sample_cone_point leaves; its
    # samplers draw from that stream: no make_rng is called once trials start.
    defn = SUITES[name]
    entered, points, built = [], [], []
    make_rng = core.make_rng

    def trial(sig, *args):
        *x, rng, tol = args
        entered.append(rng.bit_generator.state)
        points.extend(x)
        return defn.fn(sig, *args)

    def counting(seed, *path):
        if entered:
            built.append((seed, *path))
        return make_rng(seed, *path)

    for module in (core, charts, suites):
        monkeypatch.setattr(module, "make_rng", counting, raising=False)
    monkeypatch.setitem(SUITES, name, dataclasses.replace(defn, fn=trial))
    rep = run_suite(name, SIG22, trials=4, seed=3)[0]
    assert rep.ok
    assert built == []
    assert len(entered) == 4
    assert len(points) == (4 if defn.opens_with else 0)
    for k, state in enumerate(entered):
        want = make_rng(3, 2, 2, k)
        if defn.opens_with:
            x = core.sample_cone_point(SIG22, want)
            assert points[k].components.tobytes() == x.components.tobytes()
        np.testing.assert_equal(state, want.bit_generator.state)


def _reference_report(name, sig, seed, trials):
    """run_suite's report, timing aside, from a plain loop that builds
    make_rng(seed, p, q, k) for each trial and draws an opening cone point
    from it by sample_cone_point, one object at a time."""
    defn = SUITES[name]
    passes = failures = 0
    worst, counterexample = 0.0, None
    for k in range(trials):
        try:
            rng = make_rng(seed, sig.p, sig.q, k)
            x = [sample_cone_point(sig, rng)] if defn.opens_with else []
            ok, residual, detail = defn.fn(sig, *x, rng, defn.tol)
        except QuadricError as exc:
            ok, residual = False, float("inf")
            detail = {"error": type(exc).__name__, "message": str(exc)}
        worst = max(worst, residual)
        passes += ok
        failures += not ok
        if not ok and counterexample is None:
            counterexample = {"trial": k, "residual": residual, **detail}
    return {"suite": name, "signature": str(sig) if defn.per_signature else "-",
            "seed": seed, "trials": trials, "passes": passes, "failures": failures,
            "worst_residual": worst, "counterexample": counterexample}


@pytest.mark.parametrize("seed", [0, 2**64 + 1])
@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=str)
def test_reports_equal_a_make_rng_loop(sig, seed):
    for name in suite_names():
        got = run_suite(name, sig, trials=5, seed=seed)[0].to_json()
        del got["elapsed_seconds"]
        assert got == _reference_report(name, sig, seed, 5), name


@pytest.mark.parametrize("name, sig", [
    *(pytest.param(name, SIG11, id=name) for name, defn in SUITES.items() if defn.opens_with),
    # Chart frames with middles: a reflection in each block and the transvection;
    # ray and phase representatives off a pivot in either block.
    *(pytest.param(name, Signature(2, 3), id=f"{name}-(2,3)")
      for name in CHART_SUITES + RAY_SUITES)])
def test_reports_equal_a_make_rng_loop_across_a_key_block(name, sig):
    # Trial 1024 opens the second block of keys, of cone points, of frames and
    # of representatives; it is a block of one, drawn on the object path.
    trials = core._KEY_BLOCK + 1
    got = run_suite(name, sig, trials=trials, seed=3)[0].to_json()
    del got["elapsed_seconds"]
    assert got == _reference_report(name, sig, 3, trials)


@pytest.mark.parametrize("sig", [Signature(1, 2), SIG22], ids=str)
@pytest.mark.parametrize("name", CHART_SUITES)
def test_chart_suites_build_no_frame_on_the_object_path(name, sig, monkeypatch):
    # Reports are the same bits whether or not the block kernel ran, so only
    # a count shows that each trial read the frame kept on its opening point.
    assert SUITES[name].opens_with == "chart"
    calls = []
    builder = charts._frame_block

    def counting(x, v_hint):
        calls.append(x)
        return builder(x, v_hint)

    monkeypatch.setattr(charts, "_frame_block", counting)
    rep = run_suite(name, sig, seed=0)[0]
    assert rep.ok and rep.trials == SUITES[name].trials
    assert calls == []


@pytest.mark.parametrize("sig", [SIG11, Signature(2, 3)], ids=str)
@pytest.mark.parametrize("name", RAY_SUITES)
def test_ray_suites_canonicalize_no_opening_point_on_the_object_path(name, sig, monkeypatch):
    # As for the chart suites, only a count shows that each trial read the
    # representatives kept on its opening point: no _ray_rep call under the
    # standard split or _proj_rep call on it or its ray point, nor a default
    # _frame_block call on the ray point, and for skew-form, whose only frame
    # is there, no _frame_block call at all.
    defn = SUITES[name]
    assert defn.opens_with in ("ray", "ray-chart")
    opening, calls = [], []

    def trial(sig, x, rng, tol):
        opening.append(x)
        return defn.fn(sig, x, rng, tol)

    def counting(owner, attr, default):
        fn = getattr(owner, attr)

        def wrapper(point, *args):
            calls.append((attr, point if default(*args) else None))
            return fn(point, *args)
        monkeypatch.setattr(owner, attr, wrapper)

    monkeypatch.setitem(SUITES, name, dataclasses.replace(defn, fn=trial))
    counting(quotients, "_ray_rep", lambda split: split is quotients.standard_split(sig))
    counting(quotients, "_proj_rep", lambda: True)
    counting(charts, "_frame_block", lambda v_hint: v_hint is None)
    rep = run_suite(name, sig, seed=0)[0]
    assert rep.ok and rep.trials == defn.trials == len(opening)
    kept = {id(x) for x in opening} | {id(x._derived["ray"].point) for x in opening}
    # _proj_rep takes the ray representative, whose point is the kept one.
    points = [(attr, getattr(point, "point", point)) for attr, point in calls]
    assert [call for call in points if id(call[1]) in kept] == []
    if name == "skew-form":
        assert [attr for attr, _ in calls if attr == "_frame_block"] == []


def test_more_than_two_to_the_32_trials_is_rejected_before_any_runs(monkeypatch):
    calls = []
    monkeypatch.setitem(SUITES, "counted", SuiteDef(
        lambda sig, rng, tol: calls.append(1) or (True, 0.0, {}), 1, 0.0, "counts"))
    with pytest.raises(ValueError, match=r"and <= 2\*\*32"):
        run_suite("counted", SIG22, trials=2**32 + 1)
    assert calls == []


def _conj(v):
    return CVector(v.components.conj(), v.signature)


def _unbalanced(kernel):
    """The block sampler draws the negative block at 1.5 times unit norm."""
    def unbalanced(draw, sig):
        c = draw().components
        return ConePoint(CVector(np.r_[c[:sig.p], 1.5 * c[sig.p:]], sig))

    def mutant(sig, rng, keys, *args):
        for draw in kernel(sig, rng, keys, *args):
            yield functools.partial(unbalanced, draw, sig)
    return mutant


def _real_f3(columns):
    """The quotient frame's f3 = 2u, not 2iu, which is not tangent."""
    def mutant(x, pair=None):
        cols = columns(x, pair).copy()
        cols[:, 1] *= -1j
        return cols
    return mutant


def _negated_r(inverse):
    """The exact chart inverse returns -r."""
    def mutant(chart, b):
        r, y = inverse(chart, b)
        return -r, y
    return mutant


# suite -> (signature, owner, attribute, original -> mutant): one fault of the
# library, patched in process, that the suite must report as a failure.
MUTANTS = {
    "hermitian": (SIG22, suites, "form_eval",
                  lambda f: lambda u, v: f(u, _conj(v))),  # bilinear
    "sesquilinearity": (SIG22, suites, "form_eval",
                        lambda f: lambda u, v: f(v, u)),  # linear in the second slot
    "unitary-invariance": (SIG22, core.GroupElement, "apply",
                           lambda apply: lambda self, v: apply(self, _conj(v))),
    "cone-sampler": (SIG22, core, "_cone_points", _unbalanced),
    "cross-section": (SIG22, quotients, "canonicalize_ray",  # no pass-through
                      lambda f: lambda x, split=None: f(getattr(x, "point", x), split)),
    "sphere-chart": (SIG22, quotients.RayRep, "sphere_minus",
                     lambda f: lambda self: f(self).conj()),
    "phase-retraction": (SIG11, quotients, "_pivot_index",  # ties to the highest index
                         lambda f: lambda mags, top: len(mags) - 1 - f(mags[::-1], top)),
    "u1-action": (SIG11, quotients, "torus_coords",  # angles measured clockwise
                  lambda f: lambda x: tuple(2 * np.pi - a for a in f(x))),
    "metric-scaling": (SIG22, metrics, "induced_metric",  # basis= ignored
                       lambda f: lambda x, *a, basis=None, **k: f(x, *a, **k)),
    "radical": (SIG22, metrics, "induced_metric",  # one negative direction counted positive
                lambda f: lambda *a, **k: dataclasses.replace(
                    g := f(*a, **k), signature=(g.signature[0] + 1, g.signature[1] - 1, 0))),
    "lift-independence": (SIG22, metrics, "_quotient_columns", _real_f3),
    "conformal-class": (SIG22, metrics, "_unit",  # conformal_factor's mu inverted
                        lambda f: lambda x: (*f(x)[:2], 1.0 / f(x)[2])),
    "cometric-rank": (SIG22, metrics, "cotangent_metric_qtilde",  # -G^-1
                      lambda f: lambda x, **k: dataclasses.replace(
                          c := f(x, **k), entries=-c.entries)),
    "skew-form": (SIG22, charts.ChartFrame, "witt_minus",  # e_n = x/2 + u
                  lambda f: lambda self: self.witt_plus()),
    "kappa-roundtrip": (SIG22, charts, "kappa0",  # f(x, kappa0) = 1 + 1e-8
                        lambda f: lambda *a: ConePoint(f(*a).vector * (1 + 1e-8))),
    "chart-domain": (SIG22, charts, "chart_inverse",  # no tolerance
                     lambda f: lambda chart, b, tol=0.0: f(chart, b, 0.0)),
    "aperp-partition": (SIG22, charts, "is_perp",  # comparison reversed
                        lambda f: lambda a, b, tol=1e-9: not f(a, b, tol)),
    "field-axioms": (None, exact.QGaussian, "__mul__",  # conjugates the product
                     lambda mul: lambda a, b: mul(a, b).conjugate()),
    "exact-roundtrip": (SIG22, exact, "exact_chart_inverse", _negated_r),
    "twin-agreement": (SIG22, charts, "kappa0",
                       lambda f: lambda chart, r, y: f(chart, -r, y)),
}


def test_mutant_table_names_exactly_the_suites():
    assert set(MUTANTS) == set(SUITES)


@pytest.mark.parametrize("name", suite_names())
def test_every_suite_fails_under_its_mutant(name, monkeypatch):
    if name not in MUTANTS:
        pytest.fail(f"suite {name!r} has no mutant in MUTANTS")
    sig, owner, attr, mutate = MUTANTS[name]
    assert run_suite(name, sig, trials=20, seed=0)[0].ok
    monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    rep = run_suite(name, sig, trials=20, seed=0)[0]
    assert rep.failures > 0, rep


def test_chart_domain_tells_is_perp_tolerance_apart(monkeypatch):
    # A point 10 times is_perp's tolerance off the boundary is not orthogonal
    # to the centre: is_perp at 1000 times its tolerance fails every trial.
    is_perp = charts.is_perp
    monkeypatch.setattr(charts, "is_perp",
                        lambda a, b, tol=core.DEFAULT_TOL: is_perp(a, b, 1000 * tol))
    rep = run_suite("chart-domain", SIG22, seed=0)[0]
    assert rep.failures == rep.trials == SUITES["chart-domain"].trials
    assert rep.counterexample["check"] == "near point read as orthogonal"


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 1])
@pytest.mark.parametrize("sig", [Signature(p, p) for p in range(1, 6)], ids=str)
def test_skew_form_best_is_skew_form_over_the_unit_frame(sig, seed):
    # One tangency certificate for the frame [x, ix, 2iu, m_j, i m_j], then
    # Im f(x, y^) per unit column: skew_form's value on each, bit for bit.
    for k in range(4):
        rng = make_rng(seed, k)
        _, _, detail = suites._skew_form(sig, core.sample_cone_point(sig, rng), rng, 1e-10)
        x = quotients.canonicalize_ray(core.sample_cone_point(sig, make_rng(seed, k))).point
        tangent = np.column_stack([x.components, metrics._quotient_columns(x)])
        want = max(abs(metrics.skew_form(x, x.vector, y * (1.0 / y.norm())))
                   for y in (CVector(c, sig) for c in tangent.T))
        assert detail["max_pairing"] == want


@pytest.mark.parametrize("skew_checks", [True, False])
def test_skew_form_certifies_its_frame(skew_checks, monkeypatch):
    # f3 = 2u is not tangent.  With skew_form's own argument check in place
    # the first pairing raises; without it, the frame certificate still does.
    monkeypatch.setattr(metrics, "_quotient_columns", _real_f3(metrics._quotient_columns))
    if not skew_checks:
        monkeypatch.setattr(metrics, "skew_form",
                            lambda x, a, b: float(core.form_eval(a, b).imag))
    rep = run_suite("skew-form", SIG22, trials=5, seed=0)[0]
    assert rep.failures == 5
    assert rep.counterexample["error"] == "TangencyError"
    assert rep.counterexample["message"].startswith(
        "skew form argument has tangency residual ")
