"""Regenerate the symbolic oracle's committed source from its derivation.

    PYTHONPATH=src python3 tools/derive_oracle.py [--out PATH]

Runs ``triped.verification._oracle_sources()`` (the sympy Lagrangian, then
lambdify) and writes the source it returns as the module
``src/triped/_oracle_source.py``, or to ``--out``.  ``triped verify``
compiles that committed text at first use and never imports sympy.  Run
this script after any change to the derivation; never edit the module by
hand.  ``tests/test_verification.py::test_the_committed_oracle_is_the_derivation``
holds the committed oracle to a fresh derivation, value for value.

Prints one JSON object: the path written, its size in bytes, whether its
text changed, and the derivation's time in seconds.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from triped import verification

PACKAGED = Path(verification.__file__).with_name("_oracle_source.py")

MODULE = '''"""The symbolic oracle's source, as ``verification._oracle_sources`` derives it.

Written by ``tools/derive_oracle.py``; do not edit by hand.
"""

SOURCE = """\\
{source}"""
'''


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=PACKAGED)
    args = parser.parse_args()
    start = time.perf_counter()
    source = verification._oracle_sources()
    derive_s = time.perf_counter() - start
    if '"""' in source or "\\" in source:
        raise SystemExit("the generated source cannot go verbatim between "
                         "triple quotes")
    text = MODULE.format(source=source)
    old = args.out.read_text() if args.out.exists() else None
    args.out.write_text(text)
    print(json.dumps({"out": str(args.out), "bytes": len(text.encode()),
                      "changed": text != old, "derive_s": round(derive_s, 4)}))


if __name__ == "__main__":
    main()
