"""The input-configuration space ``I`` of one check, enumerated once and indexed.

Both exact decision procedures range over ``I``: triviality (Theorems 1-2)
intersects ``val(c)`` over all of it, and the similarity condition ``C_S``
(Definition 2) intersects ``val(c')`` over the similarity neighbourhood of
every minimal configuration.  :class:`ConfigurationSpace` enumerates ``I``
once, in :func:`~repro.core.input_config.enumerate_input_configurations`
order, and numbers every configuration by its position.

Within that order the configurations on one process set ``Q`` form a
contiguous block, and the configuration proposing the value codes
``(v_1, ..., v_k)`` on ``Q`` (codes index the canonically sorted ``V_I``,
``d = |V_I|``) sits at ``offset(Q) + sum_i v_i * d^(k - i)``.  A
configuration is therefore located from its process set and proposals,
without a search, and two things follow:

* ``val`` is evaluated once per configuration, with equal admissible sets
  interned to one object (:attr:`ConfigurationSpace.vals`), so triviality
  and ``C_S`` share one table;
* the neighbourhood ``sim(c)`` is built, not filtered: a configuration on
  ``Q`` is similar to ``c`` iff ``Q`` meets ``pi(c)`` and it agrees with
  ``c`` on ``Q ∩ pi(c)``, so :meth:`ConfigurationSpace.neighbourhood_blocks`
  fixes those positions to ``c``'s proposals and ranges only the free ones
  over ``V_I``.

:func:`~repro.core.relations.similar` remains the definition of the relation;
the test suite checks the construction against it.

A space lives for one check: nothing here is cached beyond the object.

Examples
--------

>>> from repro.core.input_config import InputConfiguration
>>> from repro.core.system import SystemConfig
>>> space = ConfigurationSpace(SystemConfig(3, 1), [0, 1])
>>> len(space.configurations), space.minimal
(20, 12)
>>> c = InputConfiguration.from_mapping({0: 1, 1: 0})
>>> [space.configurations[i] for block in space.neighbourhood_blocks(c) for i in block][:3]
[InputConfiguration[(P0, 1), (P1, 0)], InputConfiguration[(P0, 1), (P2, 0)], InputConfiguration[(P0, 1), (P2, 1)]]
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .input_config import InputConfiguration, Value, enumerate_input_configurations
from .ordering import canonical_sorted
from .system import SystemConfig
from .validity import ValidityProperty


class ConfigurationSpace:
    """``I`` over a finite proposal domain, indexed by enumeration position.

    Attributes:
        configurations: Every configuration of ``I``, in
            :func:`~repro.core.input_config.enumerate_input_configurations`
            order.
        minimal: ``|I_{n-t}|``; the minimal configurations are
            ``configurations[:minimal]``.
        output_domain: The resolved decision domain ``V_O`` (the explicit
            one, else the property's own, else ``V_I``).
        vals: ``val(c)`` restricted to ``output_domain`` for every
            configuration, position for position, with equal sets interned
            to one object; ``None`` for a space built without a property.
    """

    __slots__ = ("configurations", "minimal", "output_domain", "vals", "_codes", "_blocks")

    def __init__(
        self,
        system: SystemConfig,
        input_domain: Sequence[Value],
        prop: Optional[ValidityProperty] = None,
        output_domain: Optional[Sequence[Value]] = None,
    ):
        self.configurations: List[InputConfiguration] = list(
            enumerate_input_configurations(system, input_domain)
        )
        domain = canonical_sorted(set(input_domain))
        d = len(domain)
        self._codes: Dict[Value, int] = {value: code for code, value in enumerate(domain)}
        # One block per process set Q, in enumeration order: (Q, offset, steps),
        # where steps[i][v] is what value code v at position i adds to the index.
        blocks: List[Tuple[Tuple[int, ...], int, List[List[int]]]] = []
        offset = 0
        for size in system.valid_configuration_sizes():
            steps = [[code * d ** (size - 1 - position) for code in range(d)] for position in range(size)]
            for processes in itertools.combinations(range(system.n), size):
                blocks.append((processes, offset, steps))
                offset += d**size
        self._blocks = blocks
        self.minimal = math.comb(system.n, system.quorum) * d**system.quorum

        if output_domain is None and prop is not None:
            output_domain = prop.output_domain
        self.output_domain: Sequence[Value] = output_domain if output_domain is not None else input_domain
        self.vals: Optional[List[FrozenSet[Value]]] = None
        if prop is not None:
            interned: Dict[FrozenSet[Value], FrozenSet[Value]] = {}
            self.vals = [
                interned.setdefault(admissible, admissible)
                for admissible in (
                    frozenset(prop.admissible_values(config, self.output_domain))
                    for config in self.configurations
                )
            ]

    def neighbourhood_blocks(self, config: InputConfiguration) -> Iterator[List[int]]:
        """Yield the indices of ``sim(config)``, one ascending list per process set.

        Blocks come in enumeration order, so concatenating them lists the
        neighbourhood in :func:`~repro.core.input_config.enumerate_input_configurations`
        order.  ``config`` may have any size; a process outside ``0..n-1``
        is in no process set, and a proposal outside ``V_I`` rules out every
        process set that contains its process.
        """
        codes = self._codes
        fixed = {pair.process: codes.get(pair.proposal) for pair in config.pairs}
        for processes, offset, steps in self._blocks:
            if fixed.keys().isdisjoint(processes):
                continue
            base = offset
            free: List[List[int]] = []
            for position, process in enumerate(processes):
                if process not in fixed:
                    free.append(steps[position])
                    continue
                code = fixed[process]
                if code is None:
                    break
                base += steps[position][code]
            else:
                indices = [base]
                for choices in free:
                    indices = [index + step for index in indices for step in choices]
                yield indices
