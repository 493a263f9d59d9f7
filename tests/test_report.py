"""The one CSV writer and reader: the bytes of ``csv.writer`` and an exact round trip."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_reference import csv_writer_bytes
from evcoop.marl import ALGORITHMS
from evcoop.report import csv_line, read_metrics_csv, write_csv

EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
               1.7976931348623157e308, -1e-300, 1e300, 0.30000000000000004)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
CELLS = st.one_of(st.none(), FLOATS, FLOATS.map(np.float64))
# any printable name the writer need not quote, and the names the program writes
NAMES = st.one_of(st.sampled_from((*ALGORITHMS, "oracle", "greedy-L3")),
                  st.text(st.characters(min_codepoint=32, max_codepoint=0x2FF,
                                        blacklist_characters=',"')))
ROWS = st.integers(0, 4).flatmap(lambda k: st.lists(
    st.tuples(st.integers(0, 10**6), NAMES, st.integers(0, 2**32),
              st.lists(CELLS, min_size=k, max_size=k)),
    min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_write_csv_writes_csv_writer_bytes_and_reads_back_exactly(tmp_path_factory, rows):
    header = ["episode", "algorithm", "seed", *(f"c{j}" for j in range(len(rows[0][3])))]
    table = [[episode, name, seed, *cells] for episode, name, seed, cells in rows]
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    write_csv(path, header, [csv_line(row) for row in table])
    assert path.read_bytes() == csv_writer_bytes(header, table)
    got = read_metrics_csv(path)
    assert len(got) == len(table)
    for back, row in zip(got, table):
        assert list(back) == header
        assert [back["episode"], back["algorithm"], back["seed"]] == row[:3]
        for key, cell in zip(header[3:], row[3:]):
            if cell is None:
                assert back[key] is None, key
            elif math.isnan(cell):
                assert math.isnan(back[key]), key
            else:
                assert back[key].hex() == float(cell).hex(), key
