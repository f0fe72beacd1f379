"""About the benchmark suite (its modules share no fixtures).

Every benchmark module regenerates one of the paper's tables/figures
(``python -m repro.analysis.report`` prints the paper-vs-measured record for
E1–E15).  Each is a plain pytest function: it runs its experiment once and
checks the result against the paper's claims — for E15–E21 against the exact
headline numbers, written as literals next to the computation.  Nothing is
timed here and nothing is written; speed is measured by ``benchmarks/ledger``.
"""
