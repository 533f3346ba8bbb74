"""Limits on the package's source that show in every run's memory.

A fresh process compiles each module it imports when no bytecode is
cached, as the benchmark runs do.  CPython's parser keeps a module's
tokens in one array that doubles when full, and it skips comments and
non-logical newlines: a module past 4096 such tokens makes `compile()`
peak about 280 KB higher, which showed as a 0.2 MB rise of the
benchmark's `peak_rss_mb` on every workload.
"""

import pathlib
import tokenize

import ccsym

TOKEN_BUFFER = 4096
NOT_PARSED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)


def parser_tokens(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in NOT_PARSED)


def test_every_module_stays_below_the_parser_token_buffer():
    package = pathlib.Path(ccsym.__file__).parent
    counts = {path.name: parser_tokens(path) for path in sorted(package.glob("*.py"))}
    assert "parsing.py" in counts
    over = {name: n for name, n in counts.items() if n >= TOKEN_BUFFER}
    assert not over, f"modules at or past {TOKEN_BUFFER} parser tokens (split or trim them): {over}"
