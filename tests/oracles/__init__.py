"""Reference implementations kept as differential-test oracles.

Each module holds the straightforward per-item version of a layer whose
production path is vectorised; the tests assert the two agree exactly.
"""
