"""Golden report bytes: a fixed replay of CLI calls against checked-in digests.

Each call runs ``cli.main`` in process on ``gen`` instance files (all five
kinds), a circle-sampler ``check-sip`` instance and the curated ``suite``,
in every report format, with default flags and with ``--no-verify`` where
the subcommand has it. A call's digest is the sha256 of its stdout, its
stderr and its exit code. Refactors that must not change a report byte are
checked against ``golden_report_digests.txt``.

To rewrite the digests after an intended change of output:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from supcone.cli import main

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_report_digests.txt")

FORMATS = ("machine", "human", "csv")
SEEDS = (7, 11, 13)
COUNT = 4
# gen kind -> (subcommand, whether it takes --no-verify)
KINDS = {
    "affine": ("normal-cone", True),
    "max-affine": ("normal-cone", True),
    "dom": ("dom-cone", True),
    "qc": ("qc", True),
    "program": ("check-optimal", False),
}
CIRCLE_SIP = {
    "format_version": 1,
    "kind": "check-sip",
    "id": "circle",
    "dim": 2,
    "cost": [-1, -1],
    "point": [1, 0],
    "sampler": "circle",
    "levels": [2, 3],
}


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def _digest(out: str, err: str, code: int) -> str:
    blob = out.encode() + b"\0" + err.encode() + b"\0" + str(code).encode()
    return hashlib.sha256(blob).hexdigest()


def replay(workdir: str) -> list[tuple[str, str]]:
    """(label, digest) for every call of the replay, in a fixed order.

    Labels name the call without the working directory, so digests do not
    depend on where the instance files were written.
    """
    results = []
    for kind, (command, has_no_verify) in KINDS.items():
        for seed in SEEDS:
            argv = ["gen", kind, "--seed", str(seed), "--count", str(COUNT), "--out-dir", workdir]
            _, err, code = _run(argv)
            if code != 0:
                raise AssertionError(f"gen {kind} --seed {seed} failed: {err}")
            for i in range(COUNT):
                name = f"{kind}-{seed}-{i}"
                path = os.path.join(workdir, f"{name}.json")
                with open(path, "rb") as fh:
                    results.append((f"gen {name}", hashlib.sha256(fh.read()).hexdigest()))
                flag_sets = [[], ["--no-verify"]] if has_no_verify else [[]]
                for fmt in FORMATS:
                    for flags in flag_sets:
                        argv = [command, path, "--format", fmt, *flags]
                        label = " ".join([command, name, *argv[2:]])
                        results.append((label, _digest(*_run(argv))))
    sip = os.path.join(workdir, "circle.json")
    with open(sip, "w", encoding="utf-8") as fh:
        json.dump(CIRCLE_SIP, fh)
    for fmt in FORMATS:
        out = _run(["check-sip", sip, "--format", fmt])
        results.append((f"check-sip circle --format {fmt}", _digest(*out)))
    for fmt in FORMATS:
        results.append((f"suite --format {fmt}", _digest(*_run(["suite", "--format", fmt]))))
    return results


def _read_digests() -> list[tuple[str, str]]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").rsplit(" ", 1)) for line in fh if line.strip()]


def test_report_bytes_match_golden_digests(tmp_path) -> None:
    expected = _read_digests()
    got = replay(str(tmp_path))
    assert [label for label, _ in got] == [label for label, _ in expected]
    changed = [label for (label, d), (_, e) in zip(got, expected) if d != e]
    assert not changed, f"{len(changed)} of {len(got)} calls changed output: {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        rows = replay(tmp)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.writelines(f"{label} {digest}\n" for label, digest in rows)
    print(f"wrote {len(rows)} digests to {DIGESTS}")
