"""The exit-code contract on arbitrary input: every subcommand answers 0, 1
or 2 on any graph or hypergraph text, any JSON report and any generator
parameters, and never lets an exception escape."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from domishold.cli import main  # noqa: E402
from domishold.graphs import GENERATORS  # noqa: E402

printable = st.characters(blacklist_categories=("Cs",))
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.floats(),
        st.sampled_from(["summability", "forbidden_subgraph", "dually_sperner_violation", "x"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=12,
)


def mostly(values):
    """Mostly the given values, now and then any JSON value."""
    return st.one_of(values, values, values, json_values)


@st.composite
def inputs(draw):
    """Graph or hypergraph text on up to 8 vertices, mostly well formed:
    one in ten has a corrupted line, one in five a wrong edge count, and
    one in ten is arbitrary text."""
    n = draw(st.integers(0, 8))
    if draw(st.integers(0, 3)):
        kind, item = "graph", "e"
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    else:
        kind, item = "hgraph", "h"
        edges = draw(st.lists(st.lists(st.integers(1, max(n, 1)), max_size=4), max_size=8))
    lines = [" ".join([item, *map(str, e)]) for e in edges]
    m = len(lines)
    corruption = draw(st.integers(0, 9))
    if corruption == 0:
        return draw(st.text(printable, max_size=40))
    if corruption == 1:
        lines.append(draw(st.sampled_from(["", "e 1 1", f"e 1 {n + 1}", f"h {n + 1}", "e x 2", "h"])))
    elif corruption in (2, 3):
        m += 1 if corruption == 2 else -1
    return "\n".join([f"p {kind} {n} {m}", *lines]) + "\n"


@st.composite
def reports(draw):
    """A report with a structure and a witness of any kind, whose values are
    mostly of the right type and size."""
    n = draw(st.integers(0, 9))
    bits = st.lists(mostly(st.integers(0, 1)), min_size=n, max_size=n)
    report = {
        "structure": mostly(
            st.fixed_dictionaries(
                {"weights": st.lists(mostly(st.integers(0, 4)), min_size=n, max_size=n)},
                optional={"t": mostly(st.integers(-2, 12))},
            )
        ),
        "witness": mostly(
            st.fixed_dictionaries(
                {"kind": st.sampled_from(["summability", "forbidden_subgraph", "dually_sperner_violation"])},
                optional={
                    "false_points": st.lists(bits, max_size=3),
                    "true_points": st.lists(bits, max_size=3),
                    "index": mostly(st.integers(0, 14)),
                    "embedding": st.lists(mostly(st.integers(0, 10)), max_size=7),
                    "edges": st.lists(st.lists(mostly(st.integers(0, 10)), max_size=4), max_size=3),
                },
            )
        ),
    }
    keep = draw(st.sets(st.sampled_from(sorted(report))))
    drawn = {key: draw(report[key]) for key in sorted(keep)}
    return draw(mostly(st.just(drawn)))


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # a usage error, such as a parameter that reads as an option
            return exc.code


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=inputs(), report=reports(), as_json=st.booleans())
def test_exit_codes_stay_in_contract(text, report, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path, rep = Path(tmp, "input.txt"), Path(tmp, "report.json")
        path.write_text(text, encoding="utf-8")
        rep.write_text(json.dumps(report) if as_json else str(report), encoding="utf-8")
        assert run(["verify", str(path), str(rep)]) in (0, 1, 2)
        assert run(["recognize-td", str(path)]) in (0, 1, 2)
        # the program's own certificates verify
        if run(["recognize-td", str(path), "--json", "--out", str(rep)]) in (0, 1):
            own = json.loads(rep.read_text(encoding="utf-8"))
            if own["structure"] or own["witness"]:
                assert run(["verify", str(path), str(rep)]) == 0


# generator parameters: small ints, creation sequences and junk, and the
# input file (replaced by its path)
parameters = st.one_of(
    st.integers(-2, 12).map(str),
    st.text("iu, x-", max_size=5),
    st.just("FILE"),
)


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    text=inputs(),
    family=st.sampled_from([*GENERATORS, "mystery"]),
    params=st.lists(parameters, max_size=3),
    seed=st.sampled_from([None, "7", "abc"]),
)
def test_other_commands_stay_in_contract(text, family, params, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input.txt")
        path.write_text(text, encoding="utf-8")
        assert run(["recognize-htd", str(path)]) in (0, 1, 2)
        assert run(["hypergraph", str(path), "--threshold"]) in (0, 1, 2)
        assert run(["hypergraph", str(path), "--dually-sperner"]) in (0, 1, 2)
        params = [str(path) if p == "FILE" else p for p in params]
        env = {} if seed is None else {"DOMISHOLD_SEED": seed}
        with mock.patch.dict(os.environ, env):
            assert run(["generate", family, *params]) in (0, 1, 2)
