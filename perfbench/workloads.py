"""The benchmark's workloads: seeded inputs, one timed operation, an oracle.

Each workload builds a pool of inputs from the seed in `setup`; the run
loop cycles through the pool in its seeded order and times `op` on each
item.  `check` compares a result with what the item's construction
guarantees, never with an earlier run of the library.

Pools are stratified: every input class appears a fixed number of times
and only the details inside a class come from the seed.  That keeps the
mix, and so the throughput, the same from seed to seed, and the mixes are
chosen so that neither the median nor the 90th percentile latency sits on
the boundary between two classes of very different cost.

The operations reach the library through module attributes
(``stein.tuple_map_report``, not a name imported into this module) so
that the traced run's wrappers see every call.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

from plmonster import amalgam, cli, maps, rotation, stein
from plmonster.amalgam import AmalgamWord, Factor, Syllable

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def child_env():
    """Environment for a child Python that imports plmonster from the sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def tuple_pair(rng, descriptor, depth, length):
    """Aligned source and target tuples of `length` points on the lam**-depth grid.

    Both are sampled increasing and then rotated by one common shift, as
    the library's own sampler does, so the cyclic normalization is used.
    """
    n = descriptor.lam**depth
    xs = sorted(rng.sample(range(n), length))
    ys = sorted(rng.sample(range(n), length))
    shift = rng.randrange(length)
    xs = xs[shift:] + xs[:shift]
    ys = ys[shift:] + ys[:shift]
    return (
        tuple(Fraction(k, n) for k in xs),
        tuple(Fraction(k, n) for k in ys),
    )


def _strip(n, primes):
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def independent_member(f, primes):
    """Membership for a group whose slope generators are the given primes.

    For such a group the coordinates are the rationals whose denominators
    use only those primes, and the slopes are exactly the positive
    rationals built from them; this check shares no code with
    `stein.is_member`.
    """
    for value in f.breakpoints + f.images:
        if _strip(value.denominator, primes) != 1:
            return False
    for s in f.segment_slopes():
        if s <= 0 or _strip(s.numerator, primes) != 1 or _strip(s.denominator, primes) != 1:
            return False
    return True


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""
    runs_children = False  # operations run in child processes
    warmup_ops = 5  # untimed operations before measuring
    trace_ops = 200  # operations in the traced pass

    def setup(self, seed):
        """Build the context and the input pool; returns the pool."""
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result):
        """None when the result is right, else a short reason."""
        raise NotImplementedError

    def manifest(self, executed):
        """Input properties of the (item, result) pairs of a run."""
        raise NotImplementedError


class WordDecide(Workload):
    """Planted-trivial words and their perturbations, decided by is_trivial."""

    name = "word-decide"
    warmup_ops = 100
    trace_ops = 400
    MAX_U = 23  # u has 0..23 syllables, so a word has 2..48
    PER_CLASS = 16  # words per (length of u, planted or perturbed)
    POOL_SEED = 2022

    @staticmethod
    def factor_element(rng, desc, k):
        """The k-th pool element, 0 <= k < 36: one per (depth, length, twist).

        Word cost follows the size of its elements, so the pool holds every
        shape once instead of drawing shapes by chance.
        """
        depth, length, twist = 1 + k % 3, 1 + k // 3 % 4, k // 12
        length = min(length, desc.lam**depth)
        f = stein.tuple_map(*tuple_pair(rng, desc, depth, length), desc)
        if twist == 1:
            n = desc.lam**depth
            f = maps.compose(f, maps.rotation_map(Fraction(rng.randrange(n), n)))
        elif twist == 2:
            f = maps.invert(f)
        return maps.lift(f, rng.choice((-1, 0, 1)))

    def setup(self, seed):
        amalgam.default_context.cache_clear()
        ctx = amalgam.default_context()
        # one element pool for every seed: a word's cost depends mostly on
        # the elements it is made of, and 36 elements per factor drawn anew
        # moved the mean cost by a quarter from seed to seed
        pool_rng = random.Random(self.POOL_SEED)
        pool = {}
        for factor in Factor:
            desc = ctx.descriptor(factor)
            elements = [self.factor_element(pool_rng, desc, k) for k in range(36)]
            pool[factor] = [(e, maps.invert(e)) for e in elements]
        rng = random.Random(seed)
        bumps = {
            factor: [e.base for e, _ in pool[factor] if not e.base.is_identity()]
            for factor in Factor
        }
        relators = {
            k: amalgam.relator_word(ctx, k).syllables for k in (-2, -1, 1, 2)
        }
        plan = [
            (n, perturbed)
            for n in range(self.MAX_U + 1)
            for perturbed in (False, True)
            for _ in range(self.PER_CLASS)
        ]
        rng.shuffle(plan)
        items = []
        for n, perturbed in plan:
            factor = rng.choice((Factor.G1, Factor.G2))
            u = []
            for _ in range(n):
                u.append((factor, rng.choice(pool[factor])))
                factor = factor.other
            sylls = [Syllable(f, e) for f, (e, _) in u]
            sylls += relators[rng.choice((-2, -1, 1, 2))]
            sylls += [Syllable(f, inv) for f, (_, inv) in reversed(u)]
            if perturbed:
                # s -> s*e in a trivial word leaves a conjugate of e, which is
                # nontrivial because e is a nontrivial factor element
                i = rng.randrange(len(sylls))
                s = sylls[i]
                e = rng.choice(bumps[s.factor])
                sylls[i] = Syllable(s.factor, maps.compose(s.element, maps.lift(e, 0)))
            items.append((AmalgamWord(ctx, sylls), not perturbed))
        return items

    def op(self, item):
        return item[0].is_trivial()

    def check(self, item, result):
        if result is not item[1]:
            return "word of %d syllables decided %r, built %s" % (
                len(item[0]), result, "trivial" if item[1] else "nontrivial")
        return None

    def manifest(self, executed):
        buckets = Counter()
        planted = 0
        for (word, trivial), _ in executed:
            lo = (len(word) - 1) // 8 * 8 + 1
            buckets["%d-%d" % (lo, lo + 7)] += 1
            planted += trivial
        return {
            "syllables": dict(sorted(buckets.items(), key=lambda kv: int(kv[0].split("-")[0]))),
            "planted_share": planted / len(executed),
        }


class TupleMember(Workload):
    """tuple_map_report then is_member on aligned tuple pairs."""

    name = "tuple-member"
    trace_ops = 100
    # (descriptor, depth q) and its count in each block of 20 inputs.  Cost
    # follows the lam**q grid: the cheap classes fill 40%, (6, 2) the next
    # 20%, (6, 3) 25% and (6, 4) the top 15%, so the median falls inside
    # (6, 2) and the 90th percentile a third of the way into (6, 4).
    BLOCK = (
        (stein.THOMPSON, 1, 2),
        (stein.THOMPSON, 2, 1),
        (stein.THOMPSON, 3, 2),
        (stein.THOMPSON, 4, 1),
        (stein.STEIN_2_3, 1, 2),
        (stein.STEIN_2_3, 2, 4),
        (stein.STEIN_2_3, 3, 5),
        (stein.STEIN_2_3, 4, 3),
    )
    BLOCKS = 50
    MIN_LEN = 3
    MAX_LEN = 6

    def setup(self, seed):
        rng = random.Random(seed)
        # not used by the operations; built so that set-up time covers the
        # same start-up (import and context) on every workload
        amalgam.AmalgamContext()
        plan = [
            (desc, depth)
            for _ in range(self.BLOCKS)
            for desc, depth, count in self.BLOCK
            for _ in range(count)
        ]
        rng.shuffle(plan)
        # lengths cycle through 3..6 within each class (capped by the grid):
        # cost depends on the length too, so leaving it to chance would move
        # the mean by seed, and one- and two-point tuples of depth 4 are a
        # cheap cluster that the 90th percentile would sit on
        seen = Counter()
        items = []
        for desc, depth in plan:
            length = min(self.MIN_LEN + seen[desc, depth] % (self.MAX_LEN - self.MIN_LEN + 1),
                         desc.lam**depth)
            seen[desc, depth] += 1
            xs, ys = tuple_pair(rng, desc, depth, length)
            items.append((desc, depth, xs, ys))
        return items

    def op(self, item):
        desc, _, xs, ys = item
        report = stein.tuple_map_report(xs, ys, desc)
        verdict = stein.is_member(report.map, desc)
        return report.map, report.refinement_depth, verdict.member

    def check(self, item, result):
        desc, _, xs, ys = item
        f, depth, member = result
        if member is not True:
            return "is_member said %r for a tuple map" % (member,)
        if not independent_member(f, desc.prime_support):
            return "tuple map is not in %s" % desc
        for x, y in zip(xs, ys):
            if maps.evaluate_circle(f, x) != y:
                return "tuple map sends %s to %s, not %s" % (x, maps.evaluate_circle(f, x), y)
        n = desc.lam**depth
        if any((b * n).denominator != 1 for b in f.breakpoints):
            return "breakpoint off the lam**-%d grid" % depth
        return None

    def manifest(self, executed):
        classes = {}
        for (desc, depth, xs, _), result in executed:
            key = "lam=%d,q=%d" % (desc.lam, depth)
            row = classes.setdefault(
                key, {"ops": 0, "grid_points": 0, "out_breakpoints": 0})
            row["ops"] += 1
            row["grid_points"] += 2 * (desc.lam**depth - len(xs))
            if isinstance(result, tuple):
                row["out_breakpoints"] += len(result[0].breakpoints)
        return {"classes": classes}


class RotationCertify(Workload):
    """rotation_number on conjugates h^-1 r h of rational rotations and of g0."""

    name = "rotation-certify"
    trace_ops = 100
    RATIONAL_Q = range(2, 41)  # denominators of the rational rotations
    RATIONAL_DEPTH = 45
    G0_DENOMINATOR = 50
    G0_DEPTH = 200
    RATIONALS = 800
    G0S = 200  # 20% g0: the 90th percentile falls mid-way into that class
    # conjugators: tuple maps of a fixed shape, one per descriptor, whose g0
    # conjugates cost about the same (about 70 and 85 ms here)
    CONJUGATORS = ((stein.THOMPSON, 3, 3), (stein.STEIN_2_3, 2, 2))

    def setup(self, seed):
        rng = random.Random(seed)
        amalgam.AmalgamContext()  # as in TupleMember.setup
        self.log_bounds = rotation.log_ratio_bounds(2, 3, 10**5)
        g0 = stein.irrational_candidate_g0()
        qs = list(self.RATIONAL_Q)
        plan = [qs[i % len(qs)] for i in range(self.RATIONALS)] + [None] * self.G0S
        rng.shuffle(plan)
        items = []
        for i, q in enumerate(plan):
            desc, depth, length = self.CONJUGATORS[i % 2]
            h = stein.tuple_map(*tuple_pair(rng, desc, depth, length), desc)
            if q is None:
                r, value = g0, None
            else:
                p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
                value = Fraction(p, q)
                r = maps.rotation_map(value)
            f = maps.compose(maps.compose(maps.invert(h), r), h)
            items.append((f, value))
        return items

    def op(self, item):
        f, value = item
        if value is None:
            return rotation.rotation_number(f, self.G0_DENOMINATOR, self.G0_DEPTH)
        return rotation.rotation_number(f, max(self.RATIONAL_Q), self.RATIONAL_DEPTH)

    def check(self, item, result):
        f, value = item
        if value is not None:
            if not isinstance(result, rotation.RationalRotation) or result.value != value:
                return "rotation number %r, expected %s" % (result, value)
            w = result.witness
            iterate = maps.power(maps.lift(f, 0), value.denominator)
            if not 0 <= w < 1 or maps.evaluate_line(iterate, w) != w + value.numerator:
                return "witness %s fails f^%d(x) = x + %d" % (w, value.denominator, value.numerator)
            return None
        if not isinstance(result, rotation.NonRationalCertificate):
            return "g0 conjugate got %r" % (result,)
        if result.max_denominator != self.G0_DENOMINATOR:
            return "certificate for Q = %d" % result.max_denominator
        lo, hi = result.bracket.lo, result.bracket.hi
        if not self._holds_log_ratio(lo, hi):
            return "bracket [%s, %s] misses log 2 / log 3" % (lo, hi)
        for q in range(1, self.G0_DENOMINATOR + 1):
            # some p/q in [lo, hi] exactly when ceil(lo q) <= floor(hi q)
            if -((-lo.numerator * q) // lo.denominator) <= (hi.numerator * q) // hi.denominator:
                return "bracket [%s, %s] holds a fraction over %d" % (lo, hi, q)
        return None

    def _holds_log_ratio(self, lo, hi):
        """Whether lo < log 2 / log 3 < hi, from integer power comparisons.

        Starts from the bounds over 10**5 and tightens them tenfold while
        an end of the bracket lies inside them: a correct bracket can end
        closer than 10**-5 to the value.
        """
        lob, hib = self.log_bounds
        denominator = 10**5
        while not (lo < lob and hib < hi):
            if hib <= lo or hi <= lob or denominator >= 10**7:
                return False
            denominator *= 10
            lob, hib = rotation.log_ratio_bounds(2, 3, denominator)
        return True

    def manifest(self, executed):
        depth = Counter()
        rational = 0
        for (f, value), _ in executed:
            if value is None:
                depth["g0 depth %d" % self.G0_DEPTH] += 1
            else:
                rational += 1
                lo = (value.denominator - 1) // 10 * 10 + 1
                depth["q %d-%d" % (lo, lo + 9)] += 1
        return {
            "iterate_depth": dict(sorted(depth.items())),
            "rational_share": rational / len(executed),
        }


class CliRoundtrip(Workload):
    """One `python -m plmonster.cli` child per operation, from fixed pipelines.

    Pipelines: ``element g0`` then ``rot``; ``word random`` then ``word
    trivial`` then ``word reduce``; ``tuple-map`` then ``member`` then
    ``power``.  Each child reads the documents its predecessor printed,
    written to disk during set-up from the in-process output, and its
    stdout and exit code must equal that in-process output byte for byte.
    """

    name = "cli-roundtrip"
    runs_children = True
    warmup_ops = 2
    trace_ops = 23  # one pass over the commands
    WORD_PIPELINES = 4
    TUPLE_PIPELINES = 3

    def __init__(self, workdir, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.env = child_env()

    def _in_process(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return out.getvalue().encode("utf-8"), code

    def _file(self, name, data):
        path = os.path.join(self.workdir, name)
        with open(path, "wb") as handle:
            handle.write(data)
        return path

    def setup(self, seed):
        rng = random.Random(seed)
        amalgam.default_context.cache_clear()
        amalgam.default_context()
        commands = []

        def command(argv):
            out, code = self._in_process(argv)
            commands.append((tuple(argv), out, code))
            return out

        g0 = self._file("g0.json", command(["element", "g0"]))
        command(["rot", "--map", g0])
        # lengths and depths cycle rather than being drawn, so the cost of
        # the command mix does not move with the seed
        for k in range(self.WORD_PIPELINES):
            length = 2 + k % 4
            word = command(["word", "random", "--length", str(length),
                            "--seed", str(rng.randrange(1 << 30))])
            path = self._file("word%d.json" % k, word)
            command(["word", "trivial", path])
            command(["word", "reduce", path])
        for k in range(self.TUPLE_PIPELINES):
            depth = 1 + k % 3
            length = 2 + k % 3
            xs, ys = tuple_pair(rng, stein.STEIN_2_3, depth, length)
            f = command(["tuple-map", "--from", ",".join(map(str, xs)),
                         "--to", ",".join(map(str, ys)), "--slopes", "2,3"])
            path = self._file("map%d.json" % k, f)
            command(["member", "--map", path, "--slopes", "2,3"])
            command(["power", path, str(rng.choice((-1, 1)) * rng.randint(2, 6))])
        return commands

    def op(self, item):
        argv = item[0]
        if self.tracer is not None and self.tracer.active:
            return self._traced_op(argv)
        done = subprocess.run(
            [sys.executable, "-m", "plmonster.cli", *argv],
            cwd=self.workdir, env=self.env, capture_output=True, check=False)
        return done.stdout, done.returncode, done.stderr

    def _traced_op(self, argv):
        out_path = os.path.join(self.workdir, "child-trace.json")
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "launcher.py"), out_path, *argv],
            cwd=self.workdir, env=self.env, capture_output=True, check=False)
        wall = perf_counter() - start
        with open(out_path, "r", encoding="utf-8") as handle:
            child = json.load(handle)
        os.remove(out_path)
        self.tracer.merge(child["trace"])
        handler = child["trace"]["inclusive_s"].get("cli.main", 0.0)
        self.tracer.add("cli.import_s", child["import_s"])
        self.tracer.add("cli.spawn_s", wall - child["import_s"] - handler)
        return done.stdout, done.returncode, done.stderr

    def check(self, item, result):
        argv, out, code = item
        got_out, got_code, err = result
        if got_code != code:
            return "%s exited %d, expected %d: %s" % (
                " ".join(argv[:2]), got_code, code, err[-200:])
        if got_out != out:
            return "%s printed %d bytes that differ from in-process output" % (
                " ".join(argv[:2]), len(got_out))
        if err:
            return "%s wrote to stderr: %s" % (" ".join(argv[:2]), err[-200:])
        return None

    def manifest(self, executed):
        kinds = Counter()
        for (argv, _, _), _ in executed:
            kinds[" ".join(argv[:2]) if argv[0] == "word" else argv[0]] += 1
        return {"commands": dict(kinds)}


WORKLOADS = {
    cls.name: cls for cls in (WordDecide, TupleMember, RotationCertify, CliRoundtrip)
}
