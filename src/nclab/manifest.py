"""Output layer: the CSV data files and the run manifest that audits them.

A manifest captures what a command did (resolved arguments, physical
parameters, gauge, derived constants), what it measured (named constants
and pass/fail checks, each with its value and bound), and what it wrote
(file names with content hashes).  Two runs with the same inputs produce
identical manifests up to the timestamp field, which comparison tooling
drops.

Every CSV data file goes through ``write_csv_blocks``, whole or in row
blocks, with the same bytes: a header row, comma separators, ``\\r\\n``
line ends, floats as ``%.17g`` (so they round-trip exactly) and constant
text columns written verbatim, quoted only where they hold a comma, a
quote or a line break, all encoded as UTF-8.  NumPy computes the exact
``%.17g`` text of each float in bulk; the few values it cannot settle
exactly (zeros, non-finite values, magnitudes outside [1e-250, 1e250),
near-ties and exponents off by one) are formatted one by one with
``'%.17g' % x``, so every byte is that of the per-value form.  Each data
file and each JSON report is written to a temp file beside its target
and renamed onto it, so a write that fails leaves no partial file.
``RunOutput`` does the same for a whole run, so a command that raises
leaves no file and no directory behind.
"""
from __future__ import annotations

import contextlib
import dataclasses
import datetime
import errno
import functools
import hashlib
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import DerivedConstants
from .errors import CHECKS_FAILED_EXIT

__all__ = ["TOOL_VERSION", "RunManifest", "RunOutput", "file_sha256", "write_csv",
           "write_csv_blocks", "write_json"]

TOOL_VERSION = "0.1.0"

# Float values formatted per call.  Each row block with k float columns is
# cut into ceil(n_rows / (CSV_BLOCK_VALUES // k)) calls of equal size, within
# one row; a call formats its k column slices bytes x values in one
# _format_floats call, then copies each column transposed into a rows x
# bytes buffer filled once per file from the row template.  Fewer calls cost
# less (49 us at 10 values, 175 us at 3500), but the temporaries grow with
# the values per call: 4800 values keep every column count under 0.75 MiB
# (figure 1's three floats peak at 0.669 MiB).  No bytes x rows array may
# have rows a multiple of 512 bytes apart: on a 48 KiB, 12-way L1d, rows
# 2 KiB apart share 2 of its 64 sets, so a walk down a column thrashes;
# _byte_major pads each to an odd number of 64-byte lines.
CSV_BLOCK_VALUES = 4800

# Exact %.17g.  A finite x with 1e-250 <= |x| < 1e250 has the decimal
# exponent X = floor(log10|x|) and the 17 significant digits N = round(q),
# q = |x| * 10**(16 - X).  q is a double-double: 10**k is a head H, split
# into two 26-bit halves, plus a tail L, together within 2**-107 of 10**k;
# |x| * H is exact as a product and its Dekker error term (no FMA), and
# |x| * L is added in.  For q < 10**17 the absolute error of q is below
# 1e-14 (the pair's error, and the rounding of |x| * L and of the error
# sum, each under 2e-15), far inside _GUARD.  A value goes through
# '%.17g' % x alone when it is outside that window, zero, NaN or inf; when
# floor(q) < 10**16 or N = 10**17, that is, log10 was off by one near a
# power of ten or the digits round up into the next decade; or when the
# fraction of q lies within _GUARD of 1/2, which covers the exact ties
# that %.17g rounds half to even.  All of the window's heads, tails and
# products are normal doubles.
_WINDOW = (1e-250, 1e250)
_GUARD = 1e-6
_K_MIN, _K_MAX = 16 - 250, 16 + 251  # 16 - X, X in [-251, 250]
_SPLIT = 134217729.0  # 2**27 + 1
_E16, _E17 = 10**16, 10**17
# Bytes per value: sign, "0000" and 17 digits with the point inserted,
# then "e", the exponent's sign and up to three digits.  A zero byte is
# no character, so '%.17g' text (at most 24 bytes) fits left-aligned.
_CELL = 28
_J = np.arange(22, dtype=np.uint8)[:, None]  # byte index in the 22-byte row
# The digits before group h of half i, for _format_floats' groups[h, i].
_GROUP_START = np.array([[0, 8], [4, 12]], np.uint8)[..., None]


@functools.cache
def _powers():
    """10**k for _K_MIN <= k <= _K_MAX: the head split in two halves, and
    the tail."""
    heads, tails = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        head = num / den  # int / int is correctly rounded
        hn, hd = head.as_integer_ratio()
        heads.append(head)
        tails.append((num * hd - hn * den) / (den * hd))
    heads = np.array(heads)
    s = heads * _SPLIT
    heads_hi = s - (s - heads)
    return heads_hi, heads - heads_hi, np.array(tails)


@functools.cache
def _groups():
    """The ASCII of each 4-digit group as one native uint32, and the place
    (1 to 4, 0 for 0000) of its last nonzero digit."""
    g = np.arange(10000)
    quads = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    places = np.max((quads != 0) * np.arange(1, 5, dtype=np.uint8), axis=1)
    return (quads + 48).astype(np.uint8).view(np.uint32).ravel(), places


def _byte_major(n_bytes: int, n: int):
    """An empty (n_bytes, n) uint8 array whose row stride is an odd number
    of 64-byte lines, so that a walk down a column meets no two rows in one
    L1 cache set."""
    return np.empty((n_bytes, (-(-n // 64) | 1) * 64), np.uint8)[:, :n]


def _g17(x: float) -> bytes:
    return b"%.17g" % x


def _decimal(x):
    """The exponent X and the 17 digits N of each value, and a mask of the
    values whose X and N are exact (the others need '%.17g' % x)."""
    heads_hi, heads_lo, tails = _powers()
    a = np.abs(x)
    exact = (a >= _WINDOW[0]) & (a < _WINDOW[1])  # NaN compares false
    a[~exact] = 1.0
    e10 = np.log10(a)
    e10 = np.floor(e10, out=e10).astype(np.int64)
    k = 16 - _K_MIN - e10
    hh, hl = heads_hi[k], heads_lo[k]
    # The double-double product in place, in the order of
    # t = (((ah*hh - prod) + ah*hl + al*hh) + al*hl) + a*tails[k].
    prod = hh + hl
    prod *= a
    ah = a * _SPLIT
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    a *= tails[k]
    del k
    t = ah * hh
    t -= prod
    ah *= hl
    t += ah
    hh *= al
    t += hh
    al *= hl
    t += al
    t += a
    qh = np.add(prod, t, out=hh)
    ql = np.subtract(t, np.subtract(qh, prod, out=prod), out=t)
    fl = np.floor(ql, out=prod)
    frac = np.subtract(ql, fl, out=ql)
    # floor(q): qh is an integer wherever that is >= 10**16 > 2**53.
    digits = qh.astype(np.int64)
    digits += fl.astype(np.int64)
    exact &= digits >= _E16
    digits += frac > 0.5
    frac -= 0.5
    exact &= (digits < _E17) & (np.abs(frac, out=frac) > _GUARD)
    digits[~exact] = _E16
    return e10, digits, exact


def _format_floats(x, out) -> None:
    """Write the %.17g text of each value of ``x`` into the columns of
    ``out``, a (_CELL, len(x)) uint8 array; zero bytes are no character.

    ``write_csv`` makes one call per block, over all of the block's float
    columns.  Each temporary is dropped once spent, since the peak of this
    and of ``_decimal`` sets how many values a block can hold
    (CSV_BLOCK_VALUES).
    """
    quads, places = _groups()
    n = len(x)
    e10, digits, exact = _decimal(x)

    # Rows 1-21 hold "0000" and the 17 digits: the lead digit, then four
    # groups of four.  Rows 0 and 22 are zero, for the shifts below.
    text = _byte_major(23, n)
    text[0] = text[22] = 0
    text[1:5] = 48
    lead = digits // _E16
    np.add(lead, 48, out=text[5], casting="unsafe")
    # The other 16 digits as two halves of eight, then four groups.
    halves = np.empty((2, n), np.int64)
    np.multiply(lead, -_E16, out=halves[1])
    halves[1] += digits
    del lead, digits
    np.floor_divide(halves[1], 10**8, out=halves[0])
    halves[1] -= halves[0] * 10**8
    # groups[h, i] is the high (h = 0) or low (h = 1) group of half i.
    groups = np.empty((2, 2, n), np.intp)
    np.floor_divide(halves, 10000, out=groups[0])
    np.multiply(groups[0], -10000, out=groups[1])
    groups[1] += halves
    del halves
    text[6:22].reshape(2, 2, 4, n).transpose(1, 0, 2, 3)[...] = (
        quads[groups].view(np.uint8).reshape(2, 2, n, 4).transpose(0, 1, 3, 2)
    )
    # The place of the last nonzero digit among the 16, 0 if there is none.
    place = places[groups]
    del groups
    place += (place > 0) * _GROUP_START
    last_digit = place.reshape(4, n).max(axis=0)
    del place

    # %g layout: the point follows byte p of "0000" + digits, and the text
    # runs from byte `first` to byte `last` of that 22-byte row.
    fixed = (e10 >= -4) & (e10 < 17)
    p = np.where(fixed, e10 + 5, 5).astype(np.uint8)
    before = p - 1
    last_digit += 4
    last = np.maximum(before, last_digit + (last_digit >= p))
    first = np.minimum(before, 4)
    row = out[1:23]
    np.subtract(text[1:], text[:-1], out=row)
    row *= (_J < p).view(np.uint8)
    row += text[:-1]
    row[p, np.arange(n)] = 46
    # first <= 4 <= last
    row[:4] *= (_J[:4] >= first).view(np.uint8)
    row[5:] *= (_J[5:] <= last).view(np.uint8)
    np.multiply(np.signbit(x), np.uint8(45), out=out[0])
    out[23:] = 0
    expo = np.flatnonzero(~fixed)
    if expo.size:
        e = e10[expo]
        mag = np.abs(e)
        out[23, expo] = 101
        out[24, expo] = np.where(e < 0, 45, 43)
        out[25, expo] = (mag >= 100) * (mag // 100 + 48)
        out[26, expo] = mag // 10 % 10 + 48
        out[27, expo] = mag % 10 + 48

    slow = np.flatnonzero(~exact)
    if slow.size:
        bits, inverse = np.unique(x[slow].view(np.int64), return_inverse=True)
        texts = np.zeros((len(bits), _CELL), np.uint8)
        for i, value in enumerate(bits.view(np.float64).tolist()):
            b = _g17(value)
            texts[i, : len(b)] = np.frombuffer(b, np.uint8)
        out[:, slow] = texts[inverse].T


def _csv_text(text: str) -> bytes:
    """A text cell, quoted only where csv.writer's minimal quoting would."""
    if "\0" in text:
        raise ValueError("CSV text may not hold a NUL character: %r" % text)
    if any(c in text for c in ',"\r\n'):
        text = '"%s"' % text.replace('"', '""')
    return text.encode("utf-8")


@contextlib.contextmanager
def _replacing(path):
    """A binary file that becomes ``path`` only if the block exits cleanly.

    It is a temp file beside ``path``, renamed onto it at the end and
    removed on any exception, so neither a partial target nor the temp file
    is left behind.
    """
    path = os.fspath(path)
    tmp = "%s.%s.tmp" % (path, os.urandom(6).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, columns) -> None:
    """Write a CSV data file from whole columns: ``write_csv_blocks`` of one block."""
    write_csv_blocks(path, header, [columns])


def _block(header, columns):
    """A block's row template (_CELL blank bytes per array), arrays and offsets."""
    if len(header) != len(columns) or not all(header):
        raise ValueError(
            "need one non-empty name per column, got %r for %d columns"
            % (tuple(header), len(columns))
        )
    template, arrays, offsets = [], [], []
    for i, col in enumerate(columns):
        if isinstance(col, str):
            template.append(_csv_text(col))
        elif np.ndim(col) == 0:
            template.append(_g17(float(col)))
        else:
            offsets.append(sum(map(len, template)))
            template.append(bytes(_CELL))
            arrays.append(np.asarray(col, dtype=float))
        template.append(b"," if i < len(columns) - 1 else b"\r\n")
    if not arrays or any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("columns need at least one array, all 1-D of one length")
    return b"".join(template), arrays, offsets


def write_csv_blocks(path, header, blocks) -> None:
    """Write a CSV data file: the header, then the rows of each block.

    ``header`` names each column.  A block is a list of columns, each a 1-D
    float array, one value per row, or a constant: a string written verbatim
    in every row, or a float written as ``%.17g``.  A block has one or more
    arrays, all of one length, and the first block's constants.  The bytes
    are those of ``csv.writer`` fed ``format(x, ".17g")`` per value, encoded
    as UTF-8, however the rows are blocked.  A NUL in a name or text cell, or
    a bad block, raises ValueError, for the first before the file is opened.
    """
    blocks = iter(blocks)
    first = next(blocks, ())
    template, _, offsets = _block(header, first)
    head = b",".join(_csv_text(name) for name in header) + b"\r\n"
    k, rows = len(offsets), None
    with _replacing(path) as fh:
        fh.write(head)
        for columns in itertools.chain([first], blocks):
            later, arrays, _ = _block(header, columns)
            if later != template:
                raise ValueError("every block needs the first block's constants")
            n_rows = len(arrays[0])
            n_calls = -(-n_rows // max(1, CSV_BLOCK_VALUES // k))
            size = -(-n_rows // max(1, n_calls))
            if rows is None or len(rows) < size:  # once, unless a later block has more
                rows = np.empty((size, len(template)), np.uint8)
                rows[:] = np.frombuffer(template, np.uint8)
                values = np.empty(k * size)
                # The cell is formatted bytes x values, so that each operation
                # runs along the values; the bytes outside it keep the template's.
                cell = _byte_major(_CELL, k * size)
            for b in range(n_calls):
                start, stop = b * n_rows // n_calls, (b + 1) * n_rows // n_calls
                n = stop - start
                x, cells = values[: k * n], cell[:, : k * n]
                for j, a in enumerate(arrays):
                    x[j * n : (j + 1) * n] = a[start:stop]
                _format_floats(x, cells)
                for j, off in enumerate(offsets):
                    rows[:n, off : off + _CELL] = cells[:, j * n : (j + 1) * n].T
                fh.write(rows[:n].tobytes().translate(None, b"\0"))


def write_json(path, obj) -> None:
    """Write a JSON report: sorted keys, two-space indent, a final newline."""
    with _replacing(path) as fh:
        fh.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's content, streamed in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Mutable record built up while a command runs, then serialised once.

    ``arguments`` holds the fully resolved settings (defaults, config file
    and flags already merged) so the manifest alone reproduces the run.
    ``RunOutput`` records each output by basename and hash: manifests must
    not depend on where the output directory happened to live.  ``dc``
    supplies the params, gauge and derived_constants blocks.
    """

    command: str
    arguments: dict
    dc: DerivedConstants | None = None
    measured_constants: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def check(
        self, name: str, value: float, hi: float, lo: float | None = None
    ) -> None:
        """Record a named check that passes when lo <= value <= hi.

        ``lo`` None leaves the range open below; its side of the recorded
        ``bound`` is then null.  A NaN value fails, as it compares false
        with any bound.
        """
        value = float(value)
        passed = (lo is None or lo <= value) and value <= hi
        self.checks.append(
            {"name": name, "passed": passed, "value": value, "bound": [lo, hi]}
        )

    def add_measured(self, name: str, value: float) -> None:
        self.measured_constants[name] = float(value)

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        derived = params = gauge = None
        if self.dc is not None:
            names = ("alpha", "beta", "gamma", "omega_big", "product_lm")
            derived = {name: getattr(self.dc, name) for name in names}
            params, gauge = map(dataclasses.asdict, (self.dc.params, self.dc.gauge))
        return {
            "command": self.command,
            "arguments": self.arguments,
            "tool_version": TOOL_VERSION,
            "params": params,
            "gauge": gauge,
            "derived_constants": derived,
            "measured_constants": self.measured_constants,
            "checks": self.checks,
            "outputs": self.outputs,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }

    def write(self, path, **blocks) -> None:
        """Write the manifest, with ``blocks`` as further top-level keys."""
        write_json(path, dict(self.to_dict(), **blocks))


class RunOutput:
    """The output directory of one run, committed whole or not at all.

    ``write`` and ``finish`` stage each file under a temp name beside its
    target, ``root / name``; ``commit`` checks that no target is a
    directory (IsADirectoryError, before the first rename), renames the data
    files into place, then the manifests, prints the checks and returns the
    exit code.  As a context manager it removes every staged file and every
    directory it made if its block raises.  A ``root`` whose nearest existing ancestor
    is not a directory raises ValueError at once, before any run computes
    what it would write.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._data, self._manifests, self._made = [], [], []
        ancestor = self.root
        while not ancestor.exists() and ancestor != ancestor.parent:
            ancestor = ancestor.parent
        if not ancestor.is_dir():
            raise ValueError("cannot make output directory %s: %s is not a directory"
                             % (self.root, ancestor))

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if exc is not None:
            for tmp, _, _ in self._data + self._manifests:
                tmp.unlink(missing_ok=True)
            for made in reversed(self._made):
                with contextlib.suppress(OSError):
                    made.rmdir()

    def _stage(self, name, staged: list, man=None) -> Path:
        path = self.root / name
        try:
            self._mkdir(path.parent)
        except OSError as exc:
            raise ValueError("cannot make output directory %s: %s" % (path.parent, exc))
        tmp = path.with_name("%s.%s.tmp" % (path.name, os.urandom(6).hex()))
        staged.append((tmp, path, man))
        return tmp

    def _mkdir(self, path: Path) -> None:
        if not path.is_dir():
            self._mkdir(path.parent)
            path.mkdir()
            self._made.append(path)

    def write(self, man: RunManifest, name, writer, *args) -> None:
        """Stage data file ``name``, written by ``writer(path, *args)``."""
        tmp = self._stage(name, self._data)
        writer(tmp, *args)
        man.outputs.append({"path": Path(name).name, "sha256": file_sha256(tmp)})

    def finish(self, man: RunManifest, name, **blocks) -> None:
        """Stage ``man``, with ``blocks`` as further top-level keys."""
        man.write(self._stage(name, self._manifests, man), **blocks)

    def commit(self) -> int:
        """Rename staged files into place, print checks, and return the exit code."""
        for _, path, _ in self._data + self._manifests:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, "output target is a directory",
                                        str(path))
        for tmp, path, man in self._data + self._manifests:
            os.replace(tmp, path)
            print("wrote", path)
            for c in man.checks if man else ():
                lo, hi = c["bound"]
                bound = "<= %.6g" % hi if lo is None else "in [%.6g, %.6g]" % (lo, hi)
                status = "pass" if c["passed"] else "FAIL"
                print("check %s: %s (%.6g, bound %s)"
                      % (c["name"], status, c["value"], bound))
        if not all(man.all_passed() for _, _, man in self._manifests):
            print("one or more checks failed", file=sys.stderr)
            return CHECKS_FAILED_EXIT
        return 0
