"""Reference work: a fixed piece of pure-Python work that never touches
planartl, run as its own process beside every sample to gauge how fast the
host is at that moment.

    python3 perfbench/reference.py

It does the kinds of work the verifier does (sparse Laurent products in
dicts, tuples of Dyck words as dict keys, exact Fractions), prints one
checksum line and exits.  run.py scales each sample's time by how long
this took next to it.
"""

from __future__ import annotations

from fractions import Fraction


def poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            v = out.get(i + j, 0) + x * y
            if v:
                out[i + j] = v
            else:
                out.pop(i + j, None)
    return out


def dyck_words(n: int) -> list[tuple[int, ...]]:
    words: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def grow(opened: int, closed: int) -> None:
        if closed == n:
            words.append(tuple(prefix))
            return
        for step, ok in ((1, opened < n), (0, closed < opened)):
            if ok:
                prefix.append(step)
                grow(opened + step, closed + 1 - step)
                prefix.pop()

    grow(0, 0)
    return words


def work() -> tuple[int, int, int]:
    p = {-1: 1, 0: 1, 1: 1}
    acc = {0: 1}
    for _ in range(400):
        acc = {k: v % 1_000_003 for k, v in poly_mul(acc, p).items()}
    index = {w: i for i, w in enumerate(dyck_words(11))}
    total = Fraction(0)
    for k in range(1, 2500):
        total += Fraction(k, k * k + 1)
    return sum(acc.values()) % 1_000_003, len(index), total.numerator % 1_000_003


if __name__ == "__main__":
    # Twice over, about a second: long enough that the host's jitter from
    # one moment to the next mostly averages out.
    for _ in range(2):
        answer = work()
    print("reference", *answer)
