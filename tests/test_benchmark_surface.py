"""The benchmark's per-layer timing shims (perfbench/tracer.py) wrap
library functions by name.  Entering the tracer fails if one of them is
renamed or removed, so this keeps the wrapped names in place."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from zeroreg import normality
from zeroreg.exactalg import Matrix
from zeroreg.scheme import FiniteScheme, reduced_germ

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("zeroreg_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_restores_it():
    tracer = _load_tracer()
    originals = [getattr(owner, attr) for _, owner, attr, _ in tracer.SHIMS]
    x = FiniteScheme([reduced_germ(p) for p in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]])
    with tracer.Tracer() as t:
        assert normality.hilbert_function_values(x, 3) == [1, 3, 3, 3]
    assert t.stats["normality.hilbert_function_values"].calls == 1
    assert t.stats["normality.phi"].calls == 2
    assert t.stats["exactalg.colspace_add"].calls > 0
    assert [getattr(owner, attr) for _, owner, attr, _ in tracer.SHIMS] == originals


def test_tracer_sees_the_reducer_under_rank_and_kernel():
    # the rank shim reads nrows and ncols for its cell count, and both
    # matrix spans reach the reducer's own shim
    tracer = _load_tracer()
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    with tracer.Tracer() as t:
        assert m.rank() == 2
        assert t.stats["exactalg.colspace_add"].calls == 3
        assert m.kernel_basis() == [(Fraction(-1), Fraction(-1), Fraction(1))]
    assert t.stats["exactalg.colspace_add"].calls == 6
    assert t.stats["exactalg.rank"].calls == t.stats["exactalg.kernel_basis"].calls == 1
    assert t.metrics()["exactalg.rank.cells"] == (9, "count")
