"""The process-wide cache of compiled jet programs, fields.jet_program."""

import threading

import numpy as np
import numpy.testing as npt

import arwmass.expr
import arwmass.fields
from arwmass.expr import BinOp, Num, Var, fold_constants, parse
from arwmass.fields import (
    _PROGRAM_CACHE,
    COORD_NAMES,
    _compile_trees,
    _program_slot,
    jet_keys,
    jet_program,
)
from arwmass.geometry import make_spec, metric_jets, sample_events
from arwmass.hypersurface import GraphHypersurface

# the check workload's kind of spec: angular psi and lambda
DOCUMENT = dict(
    n=3, omega=1.0, f="log(-tau)", a=-1.0, psi="0.05*cos(theta1)*exp(tau)", lam="0.02*cos(theta1)"
)
GRAPH = "-0.4 + 0.03*sin(theta1)^2"
THETA1 = np.linspace(0.3, 2.8, 5)


def _bits(array):
    return np.asarray(array, dtype=float).view(np.int64)


def test_specs_built_from_one_document_share_their_programs():
    first, second = make_spec(**DOCUMENT), make_spec(**DOCUMENT)
    assert first.metric is not second.metric
    for order in (0, 1, 2):
        assert first.metric._program(order) is second.metric._program(order)
    graphs = [GraphHypersurface(u=GRAPH, ambient=spec.metric) for spec in (first, second)]
    assert graphs[0]._program is graphs[1]._program


def test_a_cache_hit_differentiates_and_compiles_nothing(monkeypatch):
    warm = make_spec(**DOCUMENT)
    events = sample_events(warm, 6, seed=1)
    expected = [metric_jets(warm.metric, events, order) for order in (0, 1, 2)]
    expected_u = GraphHypersurface(u=GRAPH, ambient=warm.metric).u_jet(THETA1)
    fresh = make_spec(**DOCUMENT)
    # the time profile is not one of the cached programs: its derivatives
    # are built before counting
    fresh.f.derivative(-0.5, 2)

    calls = []

    def counting(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(arwmass.expr, "_diff", counting("_diff", arwmass.expr._diff))
    monkeypatch.setattr(
        arwmass.fields, "_partial_tree", counting("_partial_tree", arwmass.fields._partial_tree)
    )
    monkeypatch.setattr(arwmass.expr, "compile", counting("compile", compile), raising=False)
    got = [metric_jets(fresh.metric, events, order) for order in (0, 1, 2)]
    got_u = GraphHypersurface(u=GRAPH, ambient=fresh.metric).u_jet(THETA1)
    assert calls == []
    for jets, reference in zip(got, expected):
        for name in ("g", "dg", "ddg", "psi_tilde", "sigma", "f", "psi"):
            if getattr(reference, name) is not None:
                npt.assert_array_equal(_bits(getattr(jets, name)), _bits(getattr(reference, name)))
    npt.assert_array_equal(_bits(got_u), _bits(expected_u))
    # the counters do count: a source not seen before differentiates and compiles
    metric_jets(make_spec(**dict(DOCUMENT, lam="0.0271828*cos(theta1)")).metric, events, 1)
    assert {"_diff", "_partial_tree", "compile"} <= set(calls)


def test_sources_differing_in_the_sign_of_a_zero_get_their_own_programs():
    positive, negative = (
        BinOp("*", BinOp("+", Var("tau"), Var("theta1")), Num(zero)) for zero in (0.0, -0.0)
    )
    # equality and hashing cannot tell the two apart, but they compile to
    # different code
    assert positive == negative and hash(positive) == hash(negative)
    names, keys = COORD_NAMES[:2], jet_keys(2, 2)
    events = np.array([[-0.5, 1.0], [-0.25, 2.0]])
    programs = [jet_program([{(): source}], names, keys) for source in (positive, negative)]
    assert programs[0] is not programs[1]
    for source, program in zip((positive, negative), programs):
        cold = _compile_trees([{(): source}], names, keys)
        npt.assert_array_equal(_bits(program(events)), _bits(cold(events)))
    assert not np.signbit(programs[0](events)[:, 0]).any()
    assert np.signbit(programs[1](events)[:, 0]).all()


def test_the_cache_stays_within_its_bound():
    events = np.array([[-0.5, 1.0, 2.0]])
    for k in range(_PROGRAM_CACHE + 8):
        spec = make_spec(2, 1.0, "log(-tau)", a=-1.0, psi=f"{k + 0.5!r}*cos(theta1)*tau")
        metric_jets(spec.metric, events, 0)
    info = _program_slot.cache_info()
    assert info.maxsize == _PROGRAM_CACHE
    assert info.currsize == _PROGRAM_CACHE


def test_a_non_finite_literal_is_compiled_afresh():
    # a folded overflow leaves inf, which has no source text to key
    source = fold_constants(parse("1e308*10*tau"))
    before = _program_slot.cache_info()
    first, second = (jet_program([{(): source}], ("tau",), jet_keys(1, 1)) for _ in range(2))
    assert first is not second
    assert _program_slot.cache_info() == before
    npt.assert_array_equal(first([-2.0]), [-np.inf, np.inf])


def test_threads_racing_on_a_cold_key_get_the_same_bits(monkeypatch):
    # both threads miss and build the program at once; the one stored first
    # is the one both return
    _program_slot.cache_clear()
    both_building = threading.Barrier(2, timeout=10)
    compile_jet = arwmass.fields.compile_jet

    def lockstep(exprs, names):
        both_building.wait()
        return compile_jet(exprs, names)

    monkeypatch.setattr(arwmass.fields, "compile_jet", lockstep)
    source = parse("exp(2*(sin(theta1)^2*(0.03*cos(theta1))))*sin(theta1)^2")
    names, keys = COORD_NAMES[:3], jet_keys(3, 2)
    programs = [None, None]

    def fetch(k):
        programs[k] = jet_program([{(): source}], names, keys)

    threads = [threading.Thread(target=fetch, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    monkeypatch.setattr(arwmass.fields, "compile_jet", compile_jet)

    assert _program_slot.cache_info().currsize == 1
    assert programs[0] is programs[1]
    events = np.array([[-0.5, 0.7, 1.1], [-0.1, 2.0, 0.4]])
    cold = _compile_trees([{(): source}], names, keys)(events)
    for program in programs:
        npt.assert_array_equal(_bits(program(events)), _bits(cold))
