"""The CLI's streamed JSON writer, and the memory a streamed document takes.

`cli._write_json(out, doc, key)` writes the bytes of
`json.dumps(doc, sort_keys=True, indent=2) + "\\n"` with doc[key] read once
from any iterable and encoded a block of `cli._JSON_BLOCK` items at a time;
so a document's one long list (montecarlo's rows, sweep's failures) is never
held whole, and the peak of a run grows by the bytes it holds a row, not by
the rendered document.
"""

import bisect
import json
import os
import tracemalloc

import pytest

from collatzlab import cli as cli_mod

BLOCK = cli_mod._JSON_BLOCK


class Sink:
    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


def streamed(doc, key):
    """The writer's bytes for doc, doc[key] given as a one-pass iterator."""
    sink = Sink()
    cli_mod._write_json(sink, {**doc, key: iter(doc[key])}, key)
    return "".join(sink.parts)


def dumped(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def row(j):
    # a montecarlo row, with the "inf" and "nan" strings a row holds in place of a float
    return {"sample": j, "xi": "inf" if j % 3 == 0 else j / 7, "one_plus_xi": 1 + j / 7,
            "chi": "nan" if j % 5 == 0 else 2.0 ** (j % 9), "zeros": j % 4, "ones": 0}


# the streamed key sorts first, between and last among the others; one
# neighbour is a nested list and one a nested dict
DOCS = [
    ("rows", {"schema": "s", "length": 2, "stats": {"a": [1.5, "inf"]}, "zz": None}),
    ("failures", {"limit": 10, "max_excursion": 2**70, "verified": [1, [2]], "a": "x"}),
    ("aaa", {"b": True, "c": {"d": {"e": []}}}),
]


@pytest.mark.parametrize("key, doc", DOCS)
@pytest.mark.parametrize("count", [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_rows_as_json_dumps(key, doc, count):
    doc = {**doc, key: [row(j) for j in range(count)]}
    assert streamed(doc, key) == dumped(doc)


@pytest.mark.parametrize("count", [0, 1, BLOCK, BLOCK + 1, 5000])
def test_ints_as_json_dumps(count):
    doc = {"schema": "collatzlab/sweep/v1", "failures": list(range(10**9, 10**9 + count))}
    assert streamed(doc, "failures") == dumped(doc)


def test_chunk_border_of_the_output(tmp_path):
    # documents of failures whose bytes end just below, at and just past the
    # 64 KiB chunk of _Output, written through it to a file
    n = bisect.bisect_left(range(20000), cli_mod._Output.CHUNK,
                           key=lambda n: len(dumped({"failures": list(range(n))})))
    for count in (n - 1, n, n + 1, 2 * n):
        doc = {"failures": list(range(count)), "schema": "x"}
        target = tmp_path / f"doc{count}.json"
        out = cli_mod._Output(str(target))
        cli_mod._write_json(out, {**doc, "failures": iter(doc["failures"])}, "failures")
        out.close()
        assert target.read_text() == dumped(doc)


def traced_peak(argv, tmp_path):
    """The tracemalloc peak of one in-process run, written to a file."""
    tracemalloc.start()
    try:
        code = cli_mod.main(argv + ["--format", "json", "--output", str(tmp_path / "doc.json")])
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def growth(argv, n, tmp_path):
    """The peak's growth a row from n to 2n rows, with the modules loaded first."""
    cli_mod.main(argv(2) + ["--output", os.devnull])
    (code, small), (twice, large) = (traced_peak(argv(k), tmp_path) for k in (n, 2 * n))
    assert code == twice
    return (large - small) / n


def test_montecarlo_rows_stream(tmp_path):
    # a sample holds its (xi, zeros, ones) and its 1 + xi; the rows stream
    per_sample = growth(
        lambda n: ["montecarlo", "--length", "2", "--level", "95", "--samples", str(n)],
        2048, tmp_path,  # 120-150 bytes in repeated runs; fewer samples spread it wider
    )
    assert per_sample < 200


def test_sweep_failures_stream(tmp_path):
    # a failure is an int of the survey's tuple; the document streams from it
    per_failure = growth(lambda n: ["sweep", "--max-steps", "10", "--limit", str(n)],
                         20000, tmp_path)
    assert per_failure < 80
