"""A seeded fuzz of the command line's exit-code contract.

Every input does bounded work or exits 2 with a message.  The inputs are
the `formats/` documents with one to three nodes mutated, the same
documents over F_p, `lemma26` argument strings, and options at their
caps, each taken through `cli.main` in process.  Every call must exit 0
or 2, or 1 from a command whose exit 1 is a verdict; an exit 2 must
leave a message on stderr and nothing on stdout; and no call may run
past a wall bound."""

import copy
import json
import random
import time
from pathlib import Path

from zeroreg import cli
from zeroreg.jsonio import SCHEME_MAX_DEGREE

FORMATS = Path(__file__).resolve().parent.parent / "formats"
SEED = 20261020
CALLS = 500
# A call's wall bound.  The slowest inputs here, `lemma26` at n = 40 and
# `hilbert` at its degree cap, take well under a second.
WALL_S = 5.0
# The commands whose exit 1 reports a checked property that fails.
VERDICTS = {"normality", "secant", "separate", "lemma26", "curve-section", "verify"}
PRIMES = (7, 2**31 - 1)

# Replacements for a node: other JSON types, scalars in and out of the
# grammar (zero, a denominator of 0, a multiple of 7, a huge integer)
# and small arrays and objects.
_VALUES = [None, True, False, 0, 1, -1, 7, 14, 2**70, "0", "1", "-1", "+6/8", "3/4", "1/0",
           "0/5", " 2 ", "1e9", "3.5", "x", "", "7/7", [], [None], ["1"], ["0", "0", "0"],
           ["1", "1/2"], [[]], {}, {"Fp": 7}, {"Fp": 4}, "Q"]
_SCALARS = ["0", "1", "-1", "2", "3", "-3", "7", "14", "1/2", "-3/4", "2/7", "1/0", "+6/8",
            " 5 ", "1e3", "3.5", "x", "", "1/-2", str(2**90)]
_FIELDS = ["Q", "fp:7", "fp:2147483647", "fp:4", "fp:1/2", "fp:x", "Q7"]


def _nodes(doc, path=()):
    """(path, node) for every node below the root, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _mutate(rng, doc):
    """doc with one to three nodes replaced, spliced, deleted or repeated."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        path, node = rng.choice(nodes)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, move = path[-1], rng.randrange(4)
        if move == 0:
            parent[key] = copy.deepcopy(rng.choice(_VALUES))
        elif move == 1:
            parent[key] = copy.deepcopy(rng.choice(nodes)[1])
        elif move == 2:
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        else:
            parent[key] = [node, copy.deepcopy(node)]
    return doc


class _Inputs:
    """Argument vectors for `cli.main`, each from documents written
    under `root`."""

    def __init__(self, rng, root):
        self.rng, self.root, self.count = rng, root, 0
        self.docs = {kind: json.loads((FORMATS / (kind + ".json")).read_text())
                     for kind in ("scheme", "curve", "subspace", "recipe")}

    def write(self, doc):
        self.count += 1
        path = self.root / ("d%d.json" % self.count)
        path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
        return str(path)

    def doc(self, kind, mutated):
        rng, doc = self.rng, self.docs[kind]
        if kind != "recipe" and rng.random() < 0.3:
            doc = dict(doc, field={"Fp": rng.choice(PRIMES)})
        return self.write(_mutate(rng, doc) if mutated else doc)

    def scheme_call(self, scheme):
        rng = self.rng
        k = str(rng.choice((0, 1, 2, 3, 5, cli.MAX_DEGREE, cli.MAX_DEGREE + 1, -1)))
        return rng.choice([
            ["hilbert", "--scheme", scheme, "--max-degree", k],
            ["normality", "--scheme", scheme, "--degree", k],
            ["regularity", "--scheme", scheme],
            ["invariant-t", "--scheme", scheme],
            ["secant", "--scheme", scheme],
            ["separate", "--scheme", scheme, "--degree", k],
            ["separate", "--scheme", scheme, "--degree", k, "--recipe", self.doc("recipe", False)],
            ["project", "--scheme", scheme, "--center", self.doc("subspace", False)],
            ["classify-fiber", "--scheme", scheme, "--n", rng.choice(("5", "6"))],
        ])

    def document_call(self):
        """One of the four documents mutated, in a command that reads it."""
        rng = self.rng
        kind = rng.choice(("scheme", "curve", "subspace", "recipe"))
        mutated = self.doc(kind, True)
        y = ":".join(rng.choice(_SCALARS[:12]) for _ in range(rng.choice((2, 2, 3))))
        if kind == "scheme":
            return self.scheme_call(mutated)
        if kind == "curve":
            return rng.choice([
                ["curve-fiber", "--curve", mutated, "--center", self.doc("subspace", False),
                 "--y", y],
                ["curve-section", "--curve", mutated, "--subspace", self.doc("subspace", False)],
            ])
        if kind == "subspace":
            return rng.choice([
                ["project", "--scheme", self.doc("scheme", False), "--center", mutated],
                ["curve-fiber", "--curve", self.doc("curve", False), "--center", mutated,
                 "--y", y],
                ["curve-section", "--curve", self.doc("curve", False), "--subspace", mutated],
            ])
        return ["separate", "--scheme", self.doc("scheme", False),
                "--degree", str(rng.randint(0, 6)), "--recipe", mutated]

    def lemma26_call(self):
        """`lemma26` on argument strings: scalars in the grammar (zero and
        multiples of 7 among them) and now and then out of it, and one
        to four off-line points of two to four coordinates."""
        rng = self.rng

        def scalar():
            return rng.choice(_SCALARS if rng.random() < 0.1 else _SCALARS[:11])

        aligned = rng.sample(_SCALARS[1:11], rng.randint(1, 8)) + [scalar()] * (rng.random() < 0.2)
        # "--a=-1", as "--a -1" would read a leading "-" as an option
        argv = ["lemma26", "--aligned=" + ",".join(aligned), "--a=" + scalar(), "--b=" + scalar()]
        for _ in range(rng.choice((2, 2, 3, 3, 1, 4))):
            size = 3 if rng.random() < 0.9 else rng.choice((2, 4))
            argv.append("--off=" + ":".join(scalar() for _ in range(size)))
        if rng.random() < 0.5:
            argv.append("--field=" + rng.choice(_FIELDS[:3] * 3 + _FIELDS[3:]))
        return argv

    def option_call(self):
        """The other commands with options at and past their caps."""
        rng = self.rng
        big = str(rng.choice((0, 1, 5, 12, 10**30, -1)))
        return rng.choice([
            ["bounds", "--dim", big, "--degree", big, "--codim", big],
            ["bounds", "--dim", "5", "--degree", big, "--codim", "4", "--on-quadric",
             rng.choice(("yes", "no", "unknown", "maybe")), "--quadric-generators"],
            ["verify", "--suite", rng.choice(cli.SUITE_NAMES), "--trials",
             rng.choice(("1", "0", "-3")), "--seed", big, "--jobs", rng.choice(("1", "0", "-1")),
             "--field", rng.choice(_FIELDS[:4])],
            ["hilbert", "--scheme", self.doc("scheme", False), "--max-degree",
             str(cli.MAX_DEGREE + rng.choice((0, 1)))],
            ["classify-fiber", "--scheme", self.doc("scheme", False), "--n", big],
            ["regularity", "--scheme", self.write(rng.choice(("", "[", "{}", "1.5", "null",
                                                              '{"field": "Q"} x')))],
            ["regularity", "--scheme", str(self.root / "missing.json")],
        ])

    def capped_calls(self):
        """`lemma26` at n = 40, the cap, and one past it, then a scheme of
        points on a conic at the degree cap and one past it."""
        calls = [["lemma26", "--aligned", ",".join(map(str, range(1, count))), "--a", "1",
                  "--b", "1", "--off", "1:2:3", "--off", "1:5:-1"]
                 for count in (cli.LEMMA26_MAX_N + 2, cli.LEMMA26_MAX_N + 3)]
        for d in (SCHEME_MAX_DEGREE, SCHEME_MAX_DEGREE + 1):
            germs = [{"point": [1, i, i * i]} for i in range(d)]
            scheme = self.write({"field": "Q", "ambient": 2, "germs": germs})
            calls.append(["hilbert", "--scheme", scheme, "--max-degree", "2"])
        return calls

    def call(self):
        roll = self.rng.random()
        if roll < 0.6:
            return self.document_call()
        if roll < 0.85:
            return self.lemma26_call()
        return self.option_call()


def _run(argv, capsys):
    """(exit code, stdout, stderr, seconds) of one in-process call; an
    argparse usage error exits through SystemExit."""
    started = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    seconds = time.perf_counter() - started
    out = capsys.readouterr()
    return code, out.out, out.err, seconds


def test_every_fuzzed_call_keeps_the_exit_code_contract(tmp_path, capsys):
    inputs = _Inputs(random.Random(SEED), tmp_path)
    seen = []
    for argv in inputs.capped_calls() + [inputs.call() for _ in range(CALLS)]:
        try:
            code, out, err, seconds = _run(argv, capsys)
        except Exception as exc:
            raise AssertionError("raised past main: %r" % (argv,)) from exc
        assert code in (0, 1, 2), (argv, code, err)
        assert code != 1 or argv[0] in VERDICTS, (argv, out)
        if code == 2:
            assert out == "" and err.strip(), (argv, out, err)
        assert seconds < WALL_S, (argv, seconds)
        seen.append(code)
    # each input at its cap runs, and one past it is refused
    assert seen[:4] == [0, 2, 0, 2]
    # the fuzz reaches all three outcomes, most of its calls refused
    counts = {code: seen.count(code) for code in (0, 1, 2)}
    assert counts[0] > 25 and counts[1] > 5 and counts[2] > CALLS // 3, counts
