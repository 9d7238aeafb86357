"""One-off timings of three ROADMAP baseline rows, as reference figures.

    python3 bench/roadmap_rows.py [--seed N]

Times, once each, ``realize_dissection`` on a seeded length-250 solution,
``reduce_to_base`` on a seeded length-2000 word and a full pass of
``enumerate_dissections(12)``. These are single runs, not gated figures.
"""

import argparse
import random
import sys
import time
from pathlib import Path

import generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quiddity import enumerate_dissections, realize_dissection, reduce_to_base  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    rng = random.Random(parser.parse_args().seed)
    solution = generate.mod2_word(rng, 250, solution=True)
    word = tuple(rng.getrandbits(1) for _ in range(2000))
    print(f"realize_dissection n=250: {timed(realize_dissection, solution):.3f} s")
    print(f"reduce_to_base n=2000: {timed(reduce_to_base, word):.3f} s")
    print(f"enumerate_dissections n=12: {timed(lambda: sum(1 for _ in enumerate_dissections(12))):.2f} s")


if __name__ == "__main__":
    main()
