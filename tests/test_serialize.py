"""The print rules that live in ``secstar.serialize``: a complex value prints
as its [re, im] pair, a non-finite part is refused like a non-finite float,
``None`` is an empty CSV cell, and every CLI table is rectangular."""

import csv
import io
import math

import numpy as np
import pytest

from secstar import cli
from secstar.serialize import canonical_json, csv_lines


COMPLEXES = [1 + 2j, complex(-0.0, 0.0), complex(0.5, -0.0), complex(-0.0, -0.0),
             complex(1e-320, -1.7e308), 0.1 + 0.2j]


@pytest.mark.parametrize("z", COMPLEXES)
def test_a_complex_prints_as_its_pair(z):
    pair = canonical_json([z.real, z.imag])
    assert canonical_json(z) == pair
    assert canonical_json(np.complex128(z)) == pair
    assert canonical_json({"z": [z, np.complex128(z)]}) == f'{{"z": [{pair[:-1]}, {pair[:-1]}]}}\n'


def test_complex_pairs_keep_negative_zero():
    text = "[[1, 2], [-0.0, 0], [0.5, -0.0], [-0.0, -0.0]]\n"
    assert canonical_json(COMPLEXES[:4]) == text
    assert canonical_json(list(np.array(COMPLEXES[:4]))) == text


@pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(0.0, math.nan),
                               complex(-math.inf, math.inf), complex(math.nan, 1.0)])
def test_a_non_finite_complex_is_refused_like_a_float(z):
    with pytest.raises(ValueError) as float_error:
        canonical_json(math.nan)
    for value in (z, np.complex128(z), [1.0, {"z": z}]):
        with pytest.raises(ValueError) as complex_error:
            canonical_json(value)
        assert str(complex_error.value) == str(float_error.value)


def test_none_is_an_empty_csv_cell():
    assert csv_lines(["a", "b", "c"], [[None, 1.5, None], ["x", None, True]]) == (
        "a,b,c\n,1.5,\nx,,true\n")


# Every subcommand with a CSV table, each table once.
CSV_TABLES = [
    ["coeffs", "--function", "g", "--order", "12"],
    ["phi", "--z", "0.5+0.5j"],
    ["phi", "--bounds", "--samples", "300"],
    ["phi", "--circle", "1", "--samples", "64"],
    ["extremal", "--n", "5", "--order", "20"],
    ["sample", "--count", "4", "--seed", "3"],
    ["functionals", "--n", "3"],
    ["optimize", "--objective", "k6"],
    ["radius", "m_starlike", "0.2"],
    ["constants"],
    ["convolution-check", "--n", "2"],
    ["report", "--samples", "200"],
]


@pytest.mark.parametrize("argv", CSV_TABLES, ids=lambda argv: " ".join(argv[:2]))
def test_every_csv_row_has_the_header_width(capsys, argv):
    code = cli.main([*argv, "--csv"])
    out = capsys.readouterr().out
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows
    assert all(len(row) == len(header) for row in rows), (header, rows)
