"""Batch analytics for election tweet streams.

Library layout:

- ``ingest``      JSON-lines parsing, the one pass over records, dataset
                  statistics, CSV export
- ``preprocess``  clean / tokenize / spell-correct / stopword-filter / stem
- ``sentiment``   pattern-lexicon and sense-lexicon scorers plus a Naive
                  Bayes classifier and distribution summaries
- ``actors``      alias-phrase mention matching and the sole-mention rule
- ``analytics``   time buckets, sentiment series, frequency tables
- ``topics``      LDA by collapsed Gibbs sampling
- ``cli``         configuration, orchestration, artifact emission
"""

__version__ = "0.1.0"
