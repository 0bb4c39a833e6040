"""Set-up time of one run, measured in a fresh interpreter.

    python3 bench/setup_probe.py CONFIG

Prints the seconds from before ``import electionpulse.cli`` (which imports
every module, as ``electionpulse all`` does) to after ``validate_config``
and the public loaders: everything before the first record is parsed.
Only public names are used.
"""

import sys
import time

start = time.perf_counter()

import electionpulse.cli  # noqa: E402,F401
from electionpulse.config import validate_config  # noqa: E402
from electionpulse.preprocess import load_stopwords  # noqa: E402
from electionpulse.sentiment import (  # noqa: E402
    load_negators,
    load_pattern_lexicon,
    load_sense_lexicon,
)
from electionpulse.spelling import load_dictionary  # noqa: E402

config = validate_config(sys.argv[1])
load_stopwords(config.stopwords_path)
if config.dictionary_path:
    load_dictionary(config.dictionary_path)
load_pattern_lexicon(config.pattern_lexicon_path)
load_negators(config.negators_path)
load_sense_lexicon(config.sense_lexicon_path)
print(time.perf_counter() - start)
