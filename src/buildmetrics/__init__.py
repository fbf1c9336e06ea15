"""Build-outcome prediction from source-code metrics.

Pipeline: tokenize/parse a Java-like corpus into a code model, compute a
42-metric vector per file, aggregate per-build datasets, select features
(information gain / CFS / selection frequency), and classify build outcomes
with a C4.5-style decision tree.
"""

__version__ = "0.1.0"
FILTER_TAGS = ("full", "a", "b", "c", "d")  # dataset --filter; here, so the CLI parser needs no stage module
