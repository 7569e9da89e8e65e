import math

import pytest

import effbath
from effbath import cli, gme, scenarios
from tracing import (Span, Tracer, effbath_namespaces, scaling_exponent, self_times, traced_functions,
                     twin_efficiency)


def span(id, start, end, parent=None, name="f", extra=None):
    return Span(id, name, "layer", parent, 0, 0, start, end, extra)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 2.0, 5.0, parent=0),  # overlaps its sibling: covered once
        span(3, 7.0, 8.0, parent=0),
        span(4, 7.5, 7.8, parent=3),  # a grandchild only reduces its own parent
        span(5, 9.5, 11.0, parent=0),  # a thread's span may outlive the parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own[3] == pytest.approx(0.7)
    assert own[1] == pytest.approx(2.0) and own[4] == pytest.approx(0.3)  # leaves keep their duration
    assert own[5] == pytest.approx(1.5)


def test_twin_efficiency_sums_variant_spans_over_their_section():
    spans = [span(0, 0.0, 3.0), span(1, 0.0, 2.0, parent=0, name="_population_pair"),
             span(2, 0.5, 2.5, parent=0, name="_population_pair")]
    assert twin_efficiency(spans) == pytest.approx(4.0 / 2.5)
    assert twin_efficiency(spans[:2]) == 0.0


def test_scaling_exponent_is_the_log_log_slope():
    spans = [span(i, 0.0, 1e-9 * n**2, name="march", extra=n) for i, n in enumerate((1000, 4000, 16000))]
    assert scaling_exponent(spans) == pytest.approx(2.0)
    assert scaling_exponent(spans[:1]) == 0.0


def test_wrappers_reach_every_namespace_that_binds_a_traced_name():
    originals = traced_functions()
    assert gme.simulate_population in originals and scenarios.write_csv in originals
    bindings = [(m, attr) for m in effbath_namespaces() for attr, v in vars(m).items()
                if callable(v) and v in originals]
    assert (scenarios, "simulate_population") in bindings and (effbath, "build_params") in bindings
    tracer = Tracer()
    tracer.install()
    try:
        for module, attr in bindings:
            assert getattr(module, attr) not in originals, f"{module.__name__}.{attr} not wrapped"
        assert scenarios.simulate_population is gme.simulate_population
        assert cli.write_csv is scenarios.write_csv
    finally:
        tracer.uninstall()
    for module, attr in bindings:
        assert getattr(module, attr) in originals


def test_spans_nest_across_modules_and_threads(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 7
        assert cli.main(["figure", "fig7", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    by_id = {s.id: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert (root.layer, root.name, root.op) == ("cli", "main", 7)
    (section,) = [s for s in tracer.spans if s.name == "run_scenario"]
    pairs = [s for s in tracer.spans if s.name == "_population_pair"]
    assert len(pairs) == 2 and all(s.parent == section.id for s in pairs)
    marches = [s for s in tracer.spans if s.name == "march"]
    assert {by_id[s.parent].name for s in marches} == {"solve_gme"} and all(s.layer == "gme" for s in marches)
    assert all(s.extra > 1000 for s in marches)
    writes = [s for s in tracer.spans if s.name == "write_csv"]
    assert sum(s.extra for s in writes) == sum(p.stat().st_size for p in tmp_path.glob("*.csv"))
    assert tracer.counts["wda.kernel_laplace"] > 0
    assert not math.isnan(twin_efficiency(tracer.spans))
