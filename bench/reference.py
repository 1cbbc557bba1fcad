"""Fixed reference work that measures how fast the host runs right now.

The benchmark shares a host whose CPU speed wanders: the same code runs up
to 2x slower for seconds or minutes at a time, and every timing moves with
it. The benchmark therefore times this fixed work right next to each timed
operation and scales the operation's time by it (see ``run.py``). The work uses only the standard library, in the same style as
the program: exact ``Fraction`` arithmetic, tuple sorting, dict look-ups,
string splitting and JSON rendering. It never imports ``loveline``, so no
change to the program moves it.

Run as a script it is the child-process reference: ``python3
bench/reference.py ROUNDS`` does ``ROUNDS`` rounds and prints the checksum.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

# Checksum of one round; ``rounds`` rounds print ``rounds * ROUND_CHECKSUM``.
ROUND_CHECKSUM = 361


def work(rounds: int) -> int:
    """Do ``rounds`` identical rounds of fixed work; returns a checksum."""
    check = 0
    for _ in range(rounds):
        spans = []
        for i in range(1, 300):
            start = Fraction(i * 7 % 97, i % 12 + 1)
            spans.append((start, start + Fraction(i % 5 + 1, 3), f"a{i % 13}"))
        spans.sort()
        merged: list[list[Fraction]] = []
        for start, end, _name in spans:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(end, merged[-1][1])
            else:
                merged.append([start, end])
        by_name: dict[str, Fraction] = {}
        for start, end, name in spans:
            by_name[name] = by_name.get(name, Fraction(0)) + (end - start)
        text = "\n".join(f"{name} {total}" for name, total in
                         sorted(by_name.items()))
        words = [line.split() for line in text.splitlines()]
        rendered = json.dumps([[str(a), str(b)] for a, b in merged])
        check += len(rendered) + len(words) + sum(
            Fraction(w[1]).denominator for w in words)
    return check


if __name__ == "__main__":
    print(work(int(sys.argv[1])))
