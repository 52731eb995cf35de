"""Set-up probe, run in a fresh interpreter: import tauword, decode every input.

Usage: python3 decode_inputs.py MANIFEST.json
The manifest lists [parser, path] pairs.  Prints the seconds from before the
first ``import tauword`` to the last decoded input.
"""

import json
import sys
import time

t0 = time.perf_counter()
import tauword  # noqa: E402
import tauword.cli  # noqa: E402,F401
from tauword import james_monoid, rearrange, specker, word_expr  # noqa: E402


def decode(parser: str, path: str) -> None:
    with open(path) as fh:
        if parser == "expr":
            word_expr.ensure_valid(word_expr.from_json(json.load(fh)))
        elif parser == "bijection":
            rearrange.bijection_from_json(json.load(fh))
        elif parser == "model":
            james_monoid.parse_model(fh.read())
        elif parser == "presentation":
            for block in json.load(fh)["blocks"]:
                specker.parse_matrix("\n".join(" ".join(map(str, row)) for row in block["relators"]))
        else:
            raise ValueError(f"unknown parser {parser!r}")


with open(sys.argv[1]) as manifest:
    for parser, path in json.load(manifest):
        decode(parser, path)
print(time.perf_counter() - t0)
