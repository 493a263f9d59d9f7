"""The ``csv`` module's writer as the byte reference of ``report.write_csv``."""

import csv
import io

import numpy as np


def csv_writer_bytes(header, rows) -> bytes:
    """``header`` and ``rows`` as ``csv.writer`` writes them, UTF-8 encoded.

    A numpy float is first made a Python float, which the writer writes as
    its ``repr``; the writer writes None as a blank cell.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([float(c) if isinstance(c, np.floating) else c for c in row] for row in rows)
    return buf.getvalue().encode()
