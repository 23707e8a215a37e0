"""E3 — Theorem 3: the similarity condition is necessary for solvability.

Paper claim: every solvable validity property satisfies ``C_S``.  As a
corollary of the characterization, Correct-Proposal Validity ("strong
consensus") loses ``C_S`` exactly when ``n <= (|V| + 1) t`` — the classical
Fitzi–Garay threshold, which the decision procedure re-derives here at
``t = 1`` (n = 4, 5) and ``t = 2`` (n = 7, where binary holds and ternary
fails).
"""

from conftest import run_once

from repro.core import (
    ConvexHullValidity,
    CorrectProposalValidity,
    StrongValidity,
    SystemConfig,
    WeakValidity,
    check_similarity_condition,
    classify,
)


def test_thm3_solvable_named_properties_satisfy_cs(benchmark):
    def evaluate():
        system = SystemConfig(4, 1)
        domain = [0, 1]
        rows = {}
        for name, prop in {
            "strong": StrongValidity(domain),
            "weak": WeakValidity(system, domain),
            "convex-hull": ConvexHullValidity(domain),
            "correct-proposal": CorrectProposalValidity(domain),
        }.items():
            verdict = classify(prop, system, domain)
            rows[name] = (verdict.solvable, verdict.satisfies_similarity_condition)
        return rows

    rows = run_once(benchmark, evaluate)
    benchmark.extra_info["rows"] = {k: list(v) for k, v in rows.items()}
    for name, (solvable, satisfies_cs) in rows.items():
        if solvable:
            assert satisfies_cs, name


def test_thm3_fitzi_garay_threshold(benchmark):
    def sweep():
        results = {}
        for n, t in ((4, 1), (5, 1), (7, 2)):
            for domain_size in (2, 3):
                domain = list(range(domain_size))
                system = SystemConfig(n, t)
                holds = check_similarity_condition(CorrectProposalValidity(domain), system, domain).holds
                results[(n, t, domain_size)] = holds
        return results

    results = run_once(benchmark, sweep)
    benchmark.extra_info["cs_holds"] = {
        f"n={n},t={t},|V|={v}": holds for (n, t, v), holds in results.items()
    }
    for (n, t, domain_size), holds in results.items():
        assert holds == (n > (domain_size + 1) * t), (n, t, domain_size)
