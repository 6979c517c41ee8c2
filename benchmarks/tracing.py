"""Span recording and the stage-by-stage replay of ``analyze``.

The benchmark measures end-to-end figures with no tracing at all.  A
traced run records spans from here instead: the harness replays
``analyze`` (and the general P-matrix deciders of ``spin_membership``)
by calling each stage function itself, in the order ``analyze`` calls
them, with a span around each call.  Inside a stage the real code runs.
The functions a stage calls (``cocycles``, ``truncated_product``,
``encode_degree2``, ``F2Matrix.rref``) and those that ``run_census``,
``cli.main`` and ``check_against_rows`` call (``census.matrix_at``,
``cli.parse_*``, ``euclid.generators``) are rebound to span-recording
wrappers for the duration of a traced pass only, so their spans nest
under their real callers.

Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import ExitStack, contextmanager
from time import perf_counter_ns
from unittest import mock

from realbott import bottcore, census, cli, euclid
from realbott.bottcore import (
    InconsistencyError,
    ManifoldReport,
    bott_to_p,
    characteristic_ideal,
    has_full_holonomy,
    is_free,
    is_kahler,
    spin_kahler_closed_form,
    sw_class,
)
from realbott.f2poly import F2Matrix

# Every layer function the traced run reports, named <module>.<function>.
FUNCTIONS = (
    "cli.main",
    "cli.parse_bott",
    "cli.parse_pmatrix",
    "census.run_census",
    "census.matrix_at",
    "bottcore.bott_to_p",
    "bottcore.is_free",
    "bottcore.has_full_holonomy",
    "bottcore.sw_class",
    "bottcore.cocycles",
    "bottcore.characteristic_ideal",
    "bottcore.IdealDegree2Basis.contains",
    "bottcore.is_kahler",
    "bottcore.spin_kahler_closed_form",
    "f2poly.truncated_product",
    "f2poly.F2Matrix.rref",
    "f2poly.encode_degree2",
    "euclid.generators",
    "euclid.check_against_rows",
)

# The spans that stand in for one analyze() call; they never nest in each
# other, so their summed durations are the replayed stage time.
STAGES = (
    "bottcore.bott_to_p",
    "bottcore.is_free",
    "bottcore.has_full_holonomy",
    "bottcore.sw_class",
    "bottcore.characteristic_ideal",
    "bottcore.IdealDegree2Basis.contains",
    "bottcore.is_kahler",
    "bottcore.spin_kahler_closed_form",
)

_FIELDS = 6  # span record: id, parent id (-1 = root), request id, name index, start ns, end ns


class Tracer:
    """In-memory span recorder; spans of one request share ``request``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.counts: dict[str, int] = {}
        self.request = -1
        self._open: list[tuple[int, int, int]] = []
        self._next_id = 0

    def begin(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self._open.append((self._next_id, nid, perf_counter_ns()))
        self._next_id += 1

    def end(self) -> None:
        end = perf_counter_ns()
        sid, nid, start = self._open.pop()
        parent = self._open[-1][0] if self._open else -1
        self.spans.extend((sid, parent, self.request, nid, start, end))

    def call(self, name: str, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def wrap(self, name: str, fn):
        def traced(*args):
            return self.call(name, fn, *args)

        return traced

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self) -> dict:
        """Per name: calls, self ns, inclusive ns; plus the root total.

        A span's self time is its duration minus that of its children;
        spans are strictly nested, so the children cover disjoint parts
        of the parent's interval.
        """
        ids = self.spans[0::_FIELDS]
        parents = self.spans[1::_FIELDS]
        name_ids = self.spans[3::_FIELDS]
        starts = self.spans[4::_FIELDS]
        ends = self.spans[5::_FIELDS]
        name_of = array("q", bytes(8 * len(ids)))
        for sid, nid in zip(ids, name_ids):
            name_of[sid] = nid
        k = len(self.names)
        calls, self_ns, incl_ns = [0] * k, [0] * k, [0] * k
        root_ns = 0
        for parent, nid, start, end in zip(parents, name_ids, starts, ends):
            dur = end - start
            calls[nid] += 1
            self_ns[nid] += dur
            incl_ns[nid] += dur
            if parent < 0:
                root_ns += dur
            else:
                self_ns[name_of[parent]] -= dur
        return {
            "root_ns": root_ns,
            "by_name": {
                name: {"calls": calls[i], "self_ns": self_ns[i], "incl_ns": incl_ns[i]}
                for i, name in enumerate(self.names)
            },
        }

    def write(self, path) -> None:
        """All spans as gzipped TSV, one per line, with a header."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            rec = self.spans
            for k in range(0, len(rec), _FIELDS):
                sid, parent, req, nid, start, end = rec[k : k + _FIELDS]
                out.write(f"{sid}\t{parent}\t{req}\t{self.names[nid]}\t{start}\t{end}\n")


def traced_is_free(t: Tracer):
    def run(p):
        t.count("bottcore.is_free.subsets", (1 << p.d) - 1)
        return t.call("bottcore.is_free", is_free, p)

    return run


def replay_spin_membership(t: Tracer, p):
    """spin_membership(p), stage by stage: (verdict, w1, raw w2)."""
    w = t.call("bottcore.sw_class", sw_class, p, 2)
    w1 = w.graded_component(1)
    w2 = w.graded_component(2)
    spin = False
    if w1.is_zero:  # spin_membership builds the ideal only for orientable p
        ideal = t.call("bottcore.characteristic_ideal", characteristic_ideal, p)
        spin = t.call("bottcore.IdealDegree2Basis.contains", ideal.contains, w2)
    return spin, w1, w2


def replay_analyze(t: Tracer, a) -> ManifoldReport:
    """analyze(a), stage by stage, with the same consistency checks."""
    p = t.call("bottcore.bott_to_p", bott_to_p, a)
    free = traced_is_free(t)(p)
    holonomy_full = t.call("bottcore.has_full_holonomy", has_full_holonomy, p)
    spin, w1, w2raw = replay_spin_membership(t, p)
    orientable = w1.is_zero
    pairing = t.call("bottcore.is_kahler", is_kahler, a)
    s_vector = None
    if pairing is not None:
        if a.n % 2 or not orientable:
            raise InconsistencyError(f"Kahler pairing on {a.to_line()}")
        spin_cf, s_vector = t.call(
            "bottcore.spin_kahler_closed_form", spin_kahler_closed_form, a, pairing
        )
        if spin_cf != spin:
            raise InconsistencyError(f"Spin deciders disagree on {a.to_line()}")
    if spin and not orientable:
        raise InconsistencyError(f"Spin without orientability on {a.to_line()}")
    return ManifoldReport(
        n=a.n,
        free=free,
        holonomy_full=holonomy_full,
        w1=w1,
        orientable=orientable,
        kahler=pairing,
        w2raw=w2raw,
        spin=spin,
        s_vector=s_vector,
    )


@contextmanager
def traced_layers(t: Tracer):
    """Rebind the nested layer functions to span-recording wrappers.

    run_census and cli.main then run their real code with replay_analyze
    in place of analyze, and cli's general P-matrix path calls the
    replayed deciders.
    """

    matrix_at = census.matrix_at

    def census_matrix_at(n, index):
        t.request = index  # in a census, one request is one matrix
        return t.call("census.matrix_at", matrix_at, n, index)

    rebinds = [
        (bottcore, "cocycles", t.wrap("bottcore.cocycles", bottcore.cocycles)),
        (bottcore, "truncated_product", t.wrap("f2poly.truncated_product", bottcore.truncated_product)),
        (bottcore, "encode_degree2", t.wrap("f2poly.encode_degree2", bottcore.encode_degree2)),
        (F2Matrix, "rref", t.wrap("f2poly.F2Matrix.rref", F2Matrix.rref)),
        (census, "matrix_at", census_matrix_at),
        (census, "analyze", lambda a: replay_analyze(t, a)),
        (cli, "parse_bott", t.wrap("cli.parse_bott", cli.parse_bott)),
        (cli, "parse_pmatrix", t.wrap("cli.parse_pmatrix", cli.parse_pmatrix)),
        (cli, "analyze", lambda a: replay_analyze(t, a)),
        (cli, "spin_membership", lambda p: replay_spin_membership(t, p)),
        (cli, "is_free", traced_is_free(t)),
        (cli, "has_full_holonomy", t.wrap("bottcore.has_full_holonomy", has_full_holonomy)),
        (euclid, "generators", t.wrap("euclid.generators", euclid.generators)),
    ]
    with ExitStack() as stack:
        for owner, name, value in rebinds:
            stack.enter_context(mock.patch.object(owner, name, value))
        yield
