"""The similarity condition ``C_S`` (Definition 2) and the ``Lambda`` function.

A validity property satisfies ``C_S`` iff there is a computable function
``Lambda : I_{n-t} -> V_O`` such that, for every configuration ``c`` with
exactly ``n - t`` process-proposal pairs, ``Lambda(c)`` is admissible for
*every* configuration similar to ``c``.  Theorem 3 proves ``C_S`` necessary
for solvability; Theorem 5 (via the Universal algorithm) proves it
sufficient when ``n > 3t``.

Over finite domains the condition is decidable by enumeration; this module
implements that decision procedure and materialises the resulting ``Lambda``
as an explicit table, which the Universal protocol can then execute.

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

from .input_config import (
    InputConfiguration,
    Value,
    enumerate_input_configurations,
    enumerate_minimal_configurations,
)
from .ordering import canonical_sorted
from .relations import similar
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
    space: Optional[Sequence[InputConfiguration]] = None,
) -> FrozenSet[Value]:
    """Compute the intersection of ``val(c')`` over all ``c'`` similar to ``config``.

    This is the set from which any valid ``Lambda(config)`` must be drawn
    (and, by canonical similarity, the set of values decidable in a canonical
    execution corresponding to ``config``).  ``space`` is the enumerated
    ``I`` to search, for callers that already hold it; by default it is
    enumerated afresh.
    """
    remaining = set(output_domain)
    if space is None:
        space = enumerate_input_configurations(system, input_domain)
    for candidate in space:
        if not remaining:
            break
        if similar(config, candidate):
            remaining &= prop.admissible_values(candidate, output_domain)
    return frozenset(remaining)


def check_similarity_condition(
    prop: ValidityProperty,
    system: SystemConfig,
    input_domain: Sequence[Value],
    output_domain: Optional[Sequence[Value]] = None,
) -> SimilarityConditionResult:
    """Decide ``C_S`` over finite domains and build an explicit ``Lambda`` table.

    Args:
        prop: The validity property under test.
        system: System parameters (``n``, ``t``).
        input_domain: Finite proposal domain ``V_I``.
        output_domain: Finite decision domain ``V_O``; defaults to the
            property's own domain, or to ``input_domain``.

    Returns:
        A :class:`SimilarityConditionResult`.  When ``holds`` is ``True`` the
        ``lambda_table`` maps every configuration of ``I_{n-t}`` to an
        admissible-for-all-similar value (the canonical minimum of the
        intersection, so that the function is deterministic).
    """
    domain = output_domain if output_domain is not None else prop.output_domain
    if domain is None:
        domain = input_domain

    result = SimilarityConditionResult(holds=True)
    # Enumerated once: every minimal configuration searches the same space.
    space = list(enumerate_input_configurations(system, input_domain))
    for config in enumerate_minimal_configurations(system, input_domain):
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
    ``c``, ``Lambda(c)`` must be admissible for ``c'``.

    Returns:
        ``None`` when the candidate is correct, otherwise the first minimal
        configuration on which it fails.
    """
    domain = output_domain if output_domain is not None else prop.output_domain
    if domain is None:
        domain = input_domain
    space = list(enumerate_input_configurations(system, input_domain))
    for config in enumerate_minimal_configurations(system, input_domain):
        chosen = lambda_fn(config)
        for candidate in space:
            if similar(config, candidate) and not prop.is_admissible(candidate, chosen):
                return config
    return None
