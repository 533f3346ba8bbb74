"""Limits on the package's source that show in every run's memory and start-up.

A fresh process compiles each module it imports when no bytecode is
cached, as the benchmark runs do.  CPython's parser keeps a module's
tokens in one array that doubles when full, and it skips comments and
non-logical newlines: a module past 4096 such tokens makes `compile()`
peak about 280 KB higher, which showed as a 0.2 MB rise of the
benchmark's `peak_rss_mb` on every workload.
"""

import ast
import os
import pathlib
import subprocess
import sys
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


def test_only_the_truncation_search_and_the_cli_put_trunc_in_an_error():
    """`symbol.least_trunc` alone works out which --trunc an error names; cli.py
    also states the flag's cap.  No other raise in the package names the flag."""
    package = pathlib.Path(ccsym.__file__).parent
    raisers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> the innermost function around it
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and any(
                    isinstance(leaf, ast.Constant) and "--trunc" in str(leaf.value) for leaf in ast.walk(node.exc)):
                raisers.add((path.name, owner.get(node)))
    assert ("symbol.py", "least_trunc") in raisers
    assert {(name, fn) for name, fn in raisers if name != "cli.py"} == {("symbol.py", "least_trunc")}


def test_the_cli_starts_without_dataclasses_or_inspect():
    """Every command pays its imports.  `dataclasses` imports `inspect`, about
    6 ms of a cold start on a 2-vCPU machine, and `@dataclass` execs the
    methods it generates when a module is imported."""
    src = pathlib.Path(ccsym.__file__).parent.parent
    code = "import sys, ccsym.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # -S: the environment's site hooks are not the package's imports
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
