"""Regenerate data/frozen.txt, the engine's own values for d = 10..13.

Run from the repository root:

    PYTHONPATH=src python3 bench/freeze.py > bench/data/frozen.txt

It takes a few minutes (d = 13 alone enumerates about 150k chains per
side), which is why the benchmark reads these values from disk instead of
computing them during set-up.  They are regression freezes of this code,
not independent validation.
"""

import sys

from multicover.exact import format_factored
from multicover.localize import multiple_cover_invariant

DEGREES = range(10, 14)


def main() -> None:
    print("# Engine values frozen for the benchmark; regenerate with:")
    print("#   PYTHONPATH=src python3 bench/freeze.py > bench/data/frozen.txt")
    print("# Lines: <degree><TAB><numerator>/<denominator><TAB><factored text>.")
    for d in DEGREES:
        value = multiple_cover_invariant(d)
        print(f"{d}\t{value.numerator}/{value.denominator}\t{format_factored(value)}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
