import random
from fractions import Fraction

from hypothesis import settings

# Property tests run the same examples on every run and never fail on time:
# the machines the suite runs on vary widely in speed.
settings.register_profile("bczmap", deadline=None, derandomize=True)
settings.load_profile("bczmap")


def random_section_point(rng: random.Random, max_den: int = 1000):
    """Uniform-ish exact rational point of the section."""
    while True:
        da = rng.randint(1, max_den)
        a = Fraction(rng.randint(1, da), da)
        db = rng.randint(1, max_den)
        b = Fraction(rng.randint(1, db), db)
        if a + b > 1:
            return (a, b)


def random_rational(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int = 1000):
    """Exact rational strictly inside (lo, hi]."""
    den = rng.randint(1, max_den)
    num = rng.randint(1, den)
    return lo + (hi - lo) * Fraction(num, den)
