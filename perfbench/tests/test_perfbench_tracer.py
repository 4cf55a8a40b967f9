import pytest

import tracer


def spans_from(tree):
    """[(name, start, end, parent)] -> span lists with op 0."""
    return [[name, start, end, parent, 0] for name, start, end, parent in tree]


NESTED = spans_from([
    ("cli.main", 0.0, 10.0, -1),                              # 0
    ("coefficients.compute_coefficient", 1.0, 9.0, 0),        # 1
    ("summation.sum_semiconvergent", 2.0, 8.0, 1),            # 2
    ("coefficients.termgen", 2.5, 4.5, 2),                    # 3
    ("exact.bernoulli_polynomial", 3.0, 4.0, 3),              # 4
    ("exact.bernoulli_number", 3.2, 3.6, 4),                  # 5
    ("summation.to_mpf", 5.0, 5.5, 2),                        # 6
    ("coefficients.termgen", 6.0, 7.0, 2),                    # 7
])


def test_self_time_subtracts_direct_children_only():
    own = tracer.self_times(NESTED)
    assert own == pytest.approx([2.0, 2.0, 2.5, 1.0, 0.6, 0.4, 0.5, 1.0])
    assert sum(own) == pytest.approx(10.0)  # self times tile the root span


def test_busy_counts_the_union_of_nested_spans_once():
    names = [s[0] for s in NESTED]
    calls, total = tracer.busy(NESTED, lambda i: names[i].startswith("exact."))
    assert (calls, total) == (1, pytest.approx(1.0))
    calls, total = tracer.busy(NESTED, lambda i: names[i].startswith("coefficients."))
    assert (calls, total) == (1, pytest.approx(8.0))


def make_tracer(spans, installed):
    tr = tracer.Tracer()
    tr.spans = spans
    tr.installed = set(installed)
    return tr


def test_layer_metrics_on_synthetic_spans():
    tr = make_tracer(NESTED, {"cli.main", tracer.COMPUTE, tracer.SUM, tracer.TERMGEN, tracer.TO_MPF,
                              "exact.bernoulli_polynomial", "exact.bernoulli_number"})
    tr.growth = {5}
    m = tracer.layer_metrics(tr)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["summation.self_s"] == pytest.approx(2.5)
    assert m["summation.termgen_s"] == pytest.approx(3.0)
    assert m["coefficients.busy_s"] == pytest.approx(8.0)
    assert m["coefficients.self_s"] == pytest.approx(2.0 + 1.0 + 1.0)
    assert m["exact.bernoulli.busy_s"] == pytest.approx(1.0)
    assert m["exact.growth_s"] == pytest.approx(0.4)
    assert m["summation.to_mpf.calls"] == 1


def test_missing_public_name_gives_zero_metrics():
    tr = make_tracer(NESTED, {"cli.main", tracer.COMPUTE})
    tr.spans = [s for s in NESTED if s[0] in tr.installed]
    m = tracer.layer_metrics(tr)
    for name in ("reference.contour.calls", "reference.contour.busy_s", "reference.node_miss_ratio",
                 "reference.hurwitz_zeta.calls", "summation.self_s", "verification.checks",
                 "exact.busy_s", "exact.growth_s"):
        assert m[name] == 0, name
    assert all(isinstance(v, (int, float)) for v in m.values())
    assert m["cli.calls"] == 1
    missing = tracer.missing_layers(tr)
    assert tracer.CONTOUR in missing and tracer.SUM in missing and tracer.MAIN not in missing


@pytest.fixture
def pristine_package():
    """Undo install(): restore every module namespace and the check registry."""
    import importlib

    mods = [importlib.import_module(f"zetataylor.{layer}") for layer in tracer.LAYERS]
    saved = [dict(vars(m)) for m in mods]
    suites = {k: list(v) for k, v in mods[4].SUITES.items()}
    yield mods
    for m, names in zip(mods, saved):
        vars(m).update(names)
    for k, v in suites.items():
        mods[4].SUITES[k][:] = v


def test_install_skips_a_removed_name_and_reports_it(pristine_package):
    reference, cli = pristine_package[3], pristine_package[5]
    del reference.taylor_coefficient_contour
    del cli.taylor_coefficient_contour
    tr = tracer.Tracer()
    tracer.install(tr)
    assert tracer.CONTOUR not in tr.installed and tracer.COMPUTE in tr.installed
    tr.recording = True
    from zetataylor import coefficients

    coefficients.riemann_coefficient(1, digits=20)
    m = tracer.layer_metrics(tr)
    assert m["reference.contour.calls"] == 0
    assert tracer.missing_layers(tr) == [tracer.CONTOUR]
    assert m["coefficients.calls"] == 1 and m["summation.calls"] == 1
    assert m["summation.terms_generated"] >= m["summation.calls"]
    assert len(tr.captures[tracer.COMPUTE]) == 1


def test_install_wraps_every_use_site(pristine_package):
    exact, coefficients = pristine_package[0], pristine_package[2]
    original = exact.stirling1
    tr = tracer.Tracer()
    tracer.install(tr)
    assert exact.stirling1 is not original and coefficients.stirling1 is not original
    tr.recording = True
    coefficients.stirling1(5, 2)
    exact.stirling1(5, 2)
    assert [s[0] for s in tr.spans] == ["exact.stirling1", "exact.stirling1"]
