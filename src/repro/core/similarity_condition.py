"""The similarity condition ``C_S`` (Definition 2) and the ``Lambda`` function.

A validity property satisfies ``C_S`` iff there is a computable function
``Lambda : I_{n-t} -> V_O`` such that, for every configuration ``c`` with
exactly ``n - t`` process-proposal pairs, ``Lambda(c)`` is admissible for
*every* configuration similar to ``c``.  Theorem 3 proves ``C_S`` necessary
for solvability; Theorem 5 (via the Universal algorithm) proves it
sufficient when ``n > 3t``.

Over finite domains the condition is decidable by enumeration; this module
implements that decision procedure and materialises the resulting ``Lambda``
as an explicit table, which the Universal protocol can then execute.  The
procedure runs over one :class:`~repro.core.configuration_space.ConfigurationSpace`
per check: ``I`` is enumerated once, ``val`` is evaluated once per
configuration, and each minimal configuration's similarity neighbourhood is
constructed directly from its proposals rather than found by testing every
configuration of ``I`` with :func:`~repro.core.relations.similar`.

Examples
--------

Strong Validity satisfies ``C_S`` exactly when ``n > 3t`` — the boundary
Theorems 3 and 5 draw:

>>> from repro.core.properties import StrongValidity
>>> from repro.core.system import SystemConfig
>>> check_similarity_condition(StrongValidity(), SystemConfig(4, 1), [0, 1]).holds
True
>>> check_similarity_condition(StrongValidity(), SystemConfig(3, 1), [0, 1]).holds
False

When the condition holds, the materialised ``Lambda`` maps every minimal
(``n - t`` sized) configuration to a value admissible across its whole
similarity neighbourhood — a unanimous vector forces the unanimous value:

>>> from repro.core.input_config import InputConfiguration
>>> result = check_similarity_condition(StrongValidity(), SystemConfig(4, 1), [0, 1])
>>> result.lambda_function()(InputConfiguration.from_mapping({0: 1, 1: 1, 2: 1}))
1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Sequence

from .configuration_space import ConfigurationSpace
from .input_config import InputConfiguration, Value
from .ordering import canonical_sorted
from .system import SystemConfig
from .validity import ValidityProperty

LambdaFunction = Callable[[InputConfiguration], Value]


@dataclass
class SimilarityConditionResult:
    """Outcome of the ``C_S`` decision procedure.

    Attributes:
        holds: ``True`` iff every minimal configuration has a common
            admissible value across its similarity neighbourhood.
        lambda_table: When the condition holds, an explicit table realising
            one valid ``Lambda`` (the canonical minimum of each intersection).
        admissible_intersections: For every minimal configuration, the full
            intersection of admissible sets over its similarity neighbourhood
            (useful for diagnostics and for proving that *any* choice rule
            within the intersection yields a correct ``Lambda``).
        counterexample: A minimal configuration whose intersection is empty,
            when the condition fails.
        minimal_configurations_checked: Number of ``I_{n-t}`` configurations examined.
    """

    holds: bool
    lambda_table: Dict[InputConfiguration, Value] = field(default_factory=dict)
    admissible_intersections: Dict[InputConfiguration, FrozenSet[Value]] = field(default_factory=dict)
    counterexample: Optional[InputConfiguration] = None
    minimal_configurations_checked: int = 0

    def lambda_function(self) -> LambdaFunction:
        """Return the ``Lambda`` realised by this result as a callable.

        Raises:
            ValueError: if the similarity condition does not hold.
        """
        if not self.holds:
            raise ValueError("the similarity condition does not hold: no Lambda function exists")
        table = dict(self.lambda_table)

        def lambda_fn(config: InputConfiguration) -> Value:
            try:
                return table[config]
            except KeyError:
                raise KeyError(
                    f"configuration {config} is not a minimal configuration of the checked system"
                ) from None

        return lambda_fn


def similarity_intersection(
    prop: ValidityProperty,
    config: InputConfiguration,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Sequence[Value],
    space: Optional[ConfigurationSpace] = None,
) -> FrozenSet[Value]:
    """Compute the intersection of ``val(c')`` over all ``c'`` similar to ``config``.

    This is the set from which any valid ``Lambda(config)`` must be drawn
    (and, by canonical similarity, the set of values decidable in a canonical
    execution corresponding to ``config``).  ``space`` is the indexed ``I``
    of the running check, built for ``prop`` over ``output_domain``; by
    default one is built afresh.
    """
    if space is None:
        space = ConfigurationSpace(system, input_domain, prop, output_domain)
    vals = space.vals
    remaining = set(output_domain)
    for block in space.neighbourhood_blocks(config):
        # Interned: each distinct admissible set of the block is intersected once.
        remaining.intersection_update(*set(map(vals.__getitem__, block)))
        if not remaining:
            break
    return frozenset(remaining)


def check_similarity_condition(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
    space: Optional[ConfigurationSpace] = None,
) -> SimilarityConditionResult:
    """Decide ``C_S`` over finite domains and build an explicit ``Lambda`` table.

    Args:
        prop: The validity property under test.
        system: System parameters (``n``, ``t``).
        input_domain: Finite proposal domain ``V_I``.
        output_domain: Finite decision domain ``V_O``; defaults to the
            property's own domain, or to ``input_domain``.
        space: The indexed ``I`` built for the same property and domains,
            when the caller shares it with another check (as
            :func:`~repro.core.solvability.classify` does with triviality);
            built here by default.

    Returns:
        A :class:`SimilarityConditionResult`.  When ``holds`` is ``True`` the
        ``lambda_table`` maps every configuration of ``I_{n-t}`` to an
        admissible-for-all-similar value (the canonical minimum of the
        intersection, so that the function is deterministic).
    """
    if space is None:
        space = ConfigurationSpace(system, input_domain, prop, output_domain)
    domain = space.output_domain

    result = SimilarityConditionResult(holds=True)
    for config in space.configurations[: space.minimal]:
        result.minimal_configurations_checked += 1
        intersection = similarity_intersection(prop, config, system, input_domain, domain, space)
        result.admissible_intersections[config] = intersection
        if not intersection:
            result.holds = False
            result.counterexample = config
            result.lambda_table = {}
            continue
        if result.holds:
            result.lambda_table[config] = canonical_sorted(intersection)[0]
    if not result.holds:
        result.lambda_table = {}
    return result


def satisfies_similarity_condition(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
) -> bool:
    """Shorthand for ``check_similarity_condition(...).holds``."""
    return check_similarity_condition(prop, system, input_domain, output_domain).holds


def verify_lambda_function(
    prop: ValidityProperty,
    lambda_fn: LambdaFunction,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
) -> Optional[InputConfiguration]:
    """Check that a candidate ``Lambda`` really witnesses ``C_S``.

    Used by the tests to validate the closed-form ``Lambda`` implementations
    of :mod:`repro.core.lambda_functions` against the definition: for every
    minimal configuration ``c`` and every configuration ``c'`` similar to
    ``c``, ``Lambda(c)`` must be admissible for ``c'``.  Admissibility is
    asked of ``prop.is_admissible`` directly, so a candidate value outside
    any finite ``V_O`` is judged by the property itself; ``output_domain``
    is accepted for symmetry with the other checks and not needed.

    Returns:
        ``None`` when the candidate is correct, otherwise the first minimal
        configuration on which it fails.
    """
    space = ConfigurationSpace(system, input_domain)
    configurations = space.configurations
    for config in configurations[: space.minimal]:
        chosen = lambda_fn(config)
        for block in space.neighbourhood_blocks(config):
            for index in block:
                if not prop.is_admissible(configurations[index], chosen):
                    return config
    return None
