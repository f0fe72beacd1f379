"""About the benchmark suite (its modules share no fixtures).

The paper's own results (Examples 1–6, Propositions 1–4, sections 3–5) are
one table of claims, ``repro.analysis.paper``: ``python -m repro paper``
prints it and ``tests/integration/test_paper_claims.py`` checks it.  The
modules here measure the workload engine built around them: E15–E21 assert
their exact headline numbers as literals next to the computation; A2 and
A3 are the delivery/relay and scoped-hash ablations.  Each is a plain
pytest function.
Nothing is timed here and nothing is written; speed is measured by
``benchmarks/ledger``.
"""
