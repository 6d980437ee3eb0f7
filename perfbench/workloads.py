"""The four benchmark workloads: their inputs, their items and output checks.

An item is one unit of timed work.  Every workload draws its inputs from a
fixed universe of seeds whose outputs have known sha256 digests (kept in
``digests.json``), in an order set by the workload seed, each input at most
once per run.  A fixed universe keeps the inputs of two runs comparable, so
the medians of two seeds differ by measurement noise and not by which inputs
they drew; drawing without repeats keeps a cache keyed on the input from
turning later items into lookups.  The warm-up item uses seed 0, which is
outside every universe, so set-up time does not depend on the workload seed.

Nothing here imports prym6 at module level: the worker times that import.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")
WARMUP_SEED = 0

#: the two-conic curve of ``test_exact_mode_on_small_curve`` is singular at
#: these four points; listing only three must make the exact check fail
CONTROL_POINTS = ((1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1))
#: fixed changes of coordinates on which the control's false accepts are
#: counted, independent of the workload seed
CONTROL_PANEL = 16


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def integer_line(rng: random.Random):
    """A fiber line with integer point and dual vector in [-3, 3]^3.

    Small integer lines keep the discriminant's coefficients at 43-128 bits,
    so the exact completeness check takes about a second instead of minutes.
    """
    from prym6.conicbundle import LineInFiber
    while True:
        o = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        dual = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        if any(o) and any(dual):
            return LineInFiber(o, dual)


class Workload:
    """One workload; subclasses define the item and its check."""

    name = ""
    #: input seeds the timed loop draws from, each at most once per run
    universe: range = range(0)
    #: rough seconds per item on the reference machine; sizes the traced run
    nominal_item_s = 1.0
    #: whether set-up fills the ``base_system`` cache
    uses_base_system = True
    #: certified instances an item yields; zero when it builds none
    certified_per_item = 0

    def order(self, seed: int) -> list[int]:
        """The universe in the order this workload seed draws it."""
        return random.Random(f"{self.name}:{seed}").sample(
            list(self.universe), len(self.universe))

    def make_input(self, s: int):
        """Untimed input generation for universe seed ``s``."""
        return s

    def run_item(self, inp):
        """The timed work; returns what ``output_text`` reads."""
        raise NotImplementedError

    def output_text(self, out) -> str | None:
        """The text whose digest is kept, or None for an invalid output."""
        raise NotImplementedError

    def expected_digest(self, s: int, digests: dict) -> str:
        return digests[self.name][str(s)]

    def output_ok(self, s: int, out, digests: dict) -> bool:
        text = self.output_text(out)
        return text is not None and sha256(text) == self.expected_digest(s, digests)


class Construct(Workload):
    """The headline path: a seeded 4-nodal instance, built and certified."""

    name = "construct"
    universe = range(1, 251)
    nominal_item_s = 0.21
    certified_per_item = 1

    def run_item(self, s):
        from prym6 import conicbundle
        return conicbundle.construct_instance(s).to_json()

    def output_text(self, out):
        return out


class Sweep(Workload):
    """Net and pencil: one net build, then one cut per certified member."""

    name = "sweep"
    universe = range(1, 121)
    nominal_item_s = 0.45
    certified_per_item = 3

    def run_item(self, s):
        from prym6 import cli
        args = argparse.Namespace(seed=s, samples=self.certified_per_item,
                                  json=None, exact_elimination=False)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.cmd_sweep(args)
        return status, buf.getvalue()

    def output_text(self, out):
        status, text = out
        return text if status == 0 else None


class Verify(Workload):
    """The Chow, count and slope replay; it never touches a construction."""

    name = "verify"
    #: the report takes no input, so every item is the same full replay
    universe = range(1, 301)
    nominal_item_s = 0.19
    uses_base_system = False

    def run_item(self, s):
        from prym6 import cli
        return cli.run_checks("all")

    def output_text(self, out):
        """The report as JSON without the wall-clock ``millis`` fields."""
        if not (len(out["checks"]) == 44 and out["pass"] is True
                and all(c["pass"] for c in out["checks"])):
            return None
        checks = [{k: v for k, v in c.items() if k != "millis"}
                  for c in out["checks"]]
        return json.dumps(dict(out, checks=checks), sort_keys=True)

    def expected_digest(self, s, digests):
        return digests["verify"]


class Exact(Workload):
    """The exact (rational) completeness check on small-coefficient sextics."""

    name = "exact"
    universe = range(1, 13)
    nominal_item_s = 1.25

    def make_input(self, s):
        from prym6 import conicbundle
        inst = conicbundle.construct_instance(s, line_sampler=integer_line)
        # the change of coordinates is part of the input: with it fixed, two
        # runs differ only in order, and the item time in noise alone
        return s, inst, random.Random(f"exact:{s}")

    def run_item(self, inp):
        from prym6 import conicbundle
        _, inst, rng = inp
        return inst, conicbundle.singular_locus_is_exactly(
            inst.gamma, inst.nodes, rng, exact=True)

    def output_text(self, out):
        """The input instance, whose digest pins the sextic that was checked."""
        inst, certified = out
        return inst.to_json() if certified is True else None


WORKLOADS = {w.name: w for w in (Construct(), Sweep(), Verify(), Exact())}


def control_accepted(rng: random.Random) -> bool:
    """Whether the exact check accepts the control curve with a node unlisted.

    A sound check never does.  The result depends on the random change of
    coordinates drawn from ``rng``.
    """
    from prym6 import conicbundle
    from prym6.exactalg import MultiPoly
    one = Fraction(1)
    x = (("x", 3),)
    f = MultiPoly(x, {(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): -2 * one})
    g = MultiPoly(x, {(2, 0, 0): one, (0, 2, 0): 4 * one, (0, 0, 2): -5 * one})
    points = [tuple(Fraction(c) for c in p) for p in CONTROL_POINTS]
    return conicbundle.singular_locus_is_exactly(
        f * g, points[:3], rng, exact=True) is not False


def negative_control() -> bool:
    """True when the exact check rejects the control, as the tier-1 test has it.

    ``test_exact_mode_on_small_curve`` draws its change of coordinates from
    ``random.Random(2)``; this gate uses the same draw.
    """
    return not control_accepted(random.Random(2))


def control_false_accepts() -> int:
    """How many of CONTROL_PANEL changes of coordinates accept the control.

    The known soundness defect of ``only_known_common_roots`` (ROADMAP item
    2): an unlisted common root whose projection coincides with a listed
    one's is divided away with it.  Measured, not gated; 0 once fixed.
    """
    return sum(control_accepted(random.Random(f"control:{i}"))
               for i in range(1, CONTROL_PANEL + 1))
