"""Differential oracle for the indexed decision procedures.

The decision procedures for triviality and ``C_S`` run over a
:class:`~repro.core.configuration_space.ConfigurationSpace`: ``I`` is
enumerated once, ``val`` is evaluated once per configuration, and similarity
neighbourhoods are constructed from a configuration's proposals.  The
reference here is the definition read literally: scan every configuration of
``I`` as an object, keep those :func:`~repro.core.relations.similar` accepts,
and intersect their admissible sets.  Every fact the fast path reports — the
triviality result, every intersection, the ``Lambda`` table, the
counterexample, the counts — must equal the reference exactly, on the
analysis families and on randomly drawn table properties (including
``n <= 3t`` systems).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import (
    classification_method,
    cross_check_tasks,
    dedupe_tasks,
    default_tasks,
)
from repro.core import (
    InputConfiguration,
    SystemConfig,
    TableValidity,
    check_similarity_condition,
    check_triviality,
    classify,
    enumerate_input_configurations,
    enumerate_minimal_configurations,
    similar,
    similar_configurations,
    similarity_intersection,
    standard_properties,
    verify_lambda_function,
)
from repro.core.ordering import canonical_sorted


# ----------------------------------------------------------------------
# The reference: an object-based scan of I, filtered by ``similar``
# ----------------------------------------------------------------------
def reference_triviality(prop, system, input_domain, output_domain):
    """``(always_admissible, configurations_checked)`` by scanning ``I``."""
    remaining = set(output_domain)
    checked = 0
    for config in enumerate_input_configurations(system, input_domain):
        checked += 1
        remaining &= prop.admissible_values(config, output_domain)
    return frozenset(remaining), checked


def reference_intersection(prop, config, configurations, output_domain):
    remaining = set(output_domain)
    for candidate in configurations:
        if not remaining:
            break
        if similar(config, candidate):
            remaining &= prop.admissible_values(candidate, output_domain)
    return frozenset(remaining)


def reference_similarity(prop, system, input_domain, output_domain):
    """``(intersections, lambda_table, counterexample)`` by scanning ``I`` per minimal configuration."""
    configurations = list(enumerate_input_configurations(system, input_domain))
    intersections = {
        config: reference_intersection(prop, config, configurations, output_domain)
        for config in enumerate_minimal_configurations(system, input_domain)
    }
    failing = [config for config, values in intersections.items() if not values]
    counterexample = failing[-1] if failing else None
    lambda_table = (
        {} if failing else {config: canonical_sorted(values)[0] for config, values in intersections.items()}
    )
    return intersections, lambda_table, counterexample


def reference_verify(prop, lambda_fn, system, input_domain):
    configurations = list(enumerate_input_configurations(system, input_domain))
    for config in enumerate_minimal_configurations(system, input_domain):
        chosen = lambda_fn(config)
        for candidate in configurations:
            if similar(config, candidate) and not prop.is_admissible(candidate, chosen):
                return config
    return None


def assert_matches_reference(prop, system, input_domain, output_domain):
    """Check ``classify`` (one shared space) against the reference, fact by fact."""
    classification = classify(prop, system, input_domain, output_domain)
    triviality = classification.triviality
    similarity = classification.similarity

    always, checked = reference_triviality(prop, system, input_domain, output_domain)
    assert triviality.always_admissible == always
    assert triviality.trivial == bool(always)
    assert triviality.witness == (canonical_sorted(always)[0] if always else None)
    assert triviality.configurations_checked == checked

    intersections, lambda_table, counterexample = reference_similarity(
        prop, system, input_domain, output_domain
    )
    # Same keys in the same (enumeration) order, same sets.
    assert list(similarity.admissible_intersections.items()) == list(intersections.items())
    assert similarity.holds == (counterexample is None)
    assert similarity.counterexample == counterexample
    assert list(similarity.lambda_table.items()) == list(lambda_table.items())
    assert similarity.minimal_configurations_checked == len(intersections)
    return classification


# ----------------------------------------------------------------------
# Every enumerated analysis task
# ----------------------------------------------------------------------
ENUMERATED_TASKS = [
    task
    for task in dedupe_tasks(default_tasks() + cross_check_tasks())
    if classification_method(task) == "enumeration"
]


def test_the_sweep_covers_every_enumerated_system():
    systems = {(task.n, task.t, task.domain) for task in ENUMERATED_TASKS}
    assert {(2, 1, (0, 1)), (4, 1, (0, 1, 2)), (6, 2, (0, 1))} <= systems
    assert len(ENUMERATED_TASKS) >= 80


@pytest.mark.parametrize("task", ENUMERATED_TASKS, ids=[task.label for task in ENUMERATED_TASKS])
def test_analysis_task_matches_reference_scan(task):
    domain = list(task.domain)
    assert_matches_reference(task.build_property(), task.system(), domain, domain)


# ----------------------------------------------------------------------
# Hypothesis-drawn table properties, n in {2, 3, 4}
# ----------------------------------------------------------------------
SYSTEMS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]  # all but (4, 1) have n <= 3t


def _non_empty_subsets(domain):
    return [
        frozenset(subset)
        for size in range(1, len(domain) + 1)
        for subset in itertools.combinations(domain, size)
    ]


@st.composite
def table_properties(draw):
    """``(prop, system, input_domain, output_domain)`` with a drawn table validity.

    Half the draws are uniform tables (mostly failing ``C_S``); the other
    half widen a named property's table at random configurations, which
    keeps ``C_S`` whenever the named property has it and so exercises
    non-empty intersections and full ``Lambda`` tables.
    """
    n, t = draw(st.sampled_from(SYSTEMS))
    system = SystemConfig(n, t)
    input_domain = draw(st.sampled_from([(0, 1), (0, 1, 2)] if n <= 3 else [(0, 1)]))
    output_domain = draw(st.sampled_from([input_domain, (0, 1, 2), (1, 2)]))
    configurations = list(enumerate_input_configurations(system, input_domain))
    subsets = _non_empty_subsets(output_domain)
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from(subsets), min_size=len(configurations), max_size=len(configurations)))
        table = dict(zip(configurations, values))
    else:
        named = standard_properties(system, output_domain=list(output_domain))
        key = draw(st.sampled_from(sorted(named)))
        base = {config: named[key].admissible_values(config, output_domain) for config in configurations}
        widen = draw(st.lists(st.sampled_from(subsets), min_size=len(configurations), max_size=len(configurations)))
        mask = draw(st.lists(st.booleans(), min_size=len(configurations), max_size=len(configurations)))
        # An admissible set emptied by a narrower V_O is refilled from the draw.
        table = {
            config: (values | extra if widened else values) or extra
            for (config, values), extra, widened in zip(base.items(), widen, mask)
        }
    prop = TableValidity(table, output_domain, name="drawn", default_all=False)
    return prop, system, list(input_domain), list(output_domain)


@given(table_properties())
@settings(max_examples=60, deadline=None)
def test_drawn_table_property_matches_reference_scan(drawn):
    prop, system, input_domain, output_domain = drawn
    classification = assert_matches_reference(prop, system, input_domain, output_domain)

    # The stand-alone entry points build their own space and agree too.
    assert check_triviality(prop, system, input_domain, output_domain) == classification.triviality
    alone = check_similarity_condition(prop, system, input_domain, output_domain)
    assert alone.admissible_intersections == classification.similarity.admissible_intersections
    assert alone.counterexample == classification.similarity.counterexample
    config = next(iter(alone.admissible_intersections))
    assert (
        similarity_intersection(prop, config, system, input_domain, output_domain)
        == alone.admissible_intersections[config]
    )


@given(table_properties(), st.data())
@settings(max_examples=40, deadline=None)
def test_verify_lambda_matches_reference_scan(drawn, data):
    prop, system, input_domain, output_domain = drawn
    minimal = list(enumerate_minimal_configurations(system, input_domain))
    choices = data.draw(st.lists(st.sampled_from(output_domain), min_size=len(minimal), max_size=len(minimal)))
    table = dict(zip(minimal, choices))
    assert verify_lambda_function(prop, table.__getitem__, system, input_domain) == reference_verify(
        prop, table.__getitem__, system, input_domain
    )


# ----------------------------------------------------------------------
# The constructed neighbourhood is exactly the filtered one, in order
# ----------------------------------------------------------------------
@st.composite
def probe_configurations(draw):
    """A system and an arbitrary configuration: any size, processes up to
    ``n`` (one beyond the system), proposals possibly outside ``V_I``."""
    n, t = draw(st.sampled_from(SYSTEMS))
    assignment = draw(
        st.dictionaries(st.integers(0, n), st.sampled_from([0, 1, 2, "x"]), min_size=1, max_size=n + 1)
    )
    return SystemConfig(n, t), InputConfiguration.from_mapping(assignment)


@given(probe_configurations(), st.sampled_from([(0, 1), (0, 1, 2), ("x",)]))
@settings(max_examples=150, deadline=None)
def test_constructed_neighbourhood_equals_similar_filter(probe, input_domain):
    system, config = probe
    expected = [
        candidate
        for candidate in enumerate_input_configurations(system, input_domain)
        if similar(config, candidate)
    ]
    assert list(similar_configurations(config, system, input_domain)) == expected
