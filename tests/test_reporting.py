"""The CSV writer: the bytes of the row writer it replaced, from columns.

The reference below is that row writer: ``csv.writer`` rows with every float
formatted ``%.17g`` on its own.
"""

import csv

import numpy as np
import pytest

from ncgroupoid.reporting import _CHUNK, write_csv

FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan,
          0.1, 1 / 3, -2.5, 1e-300, 123456789.125]
IDS = [2**63 - 1, -(2**63 - 1), 2**53 + 1, -(2**53 + 1), 0, -5, 7]


def reference_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["%.17g" % v if isinstance(v, float) else v for v in row]
                         for row in rows)


def table(n: int) -> list[np.ndarray]:
    """n rows: int64 ids, the special floats, a complex channel's re and im, and a
    string column of pre-formatted floats with "" among them, each cycled and shuffled."""
    rng = np.random.default_rng(n)
    ids = rng.permutation(np.resize(np.array(IDS, dtype=np.int64), n))
    x = rng.permutation(np.resize(np.array(FLOATS), n))
    # re and im side by side, as a complex array holds them (x + 1j * y would turn inf to nan)
    z = np.stack([x, rng.permutation(x)], axis=-1).view(complex).ravel()
    text = np.array(["%.17g" % v if i % 3 else "" for i, v in enumerate(x.tolist())], dtype=str)
    return [ids, rng.permutation(ids), x, z.real, z.imag, rng.standard_normal(n), text]


@pytest.mark.parametrize("n", [0, 1, len(FLOATS), 2 * _CHUNK + 3])
def test_write_csv_matches_the_row_writer(tmp_path, n):
    header = ["src", "dst", "x", "re", "im", "normal", "text"]
    columns = table(n)
    write_csv(tmp_path / "new.csv", header, columns)
    reference_csv(tmp_path / "ref.csv", header, zip(*(col.tolist() for col in columns)))
    new, ref = (tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()
    assert new == ref
    assert new.count(b"\r\n") == n + 1

