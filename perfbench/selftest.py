#!/usr/bin/env python3
"""Self-test: a corrupted golden output must be counted as failed.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload, copies ``golden.json`` with the seed-1 entries
corrupted by the smallest possible change (one float moved to its next
representable value, or one hash digit flipped), runs
``run.py --seed 1 --seconds 1`` against the copy, and requires the
result line to say ``"correct": false`` with at least one failed op.
Exits 0 when every workload catches its corruption.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

import run


def _nudge(value: float) -> float:
    return math.nextafter(value, math.inf)


def _flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def corrupt(golden: dict, name: str) -> None:
    """Corrupt every golden entry a seed-1 run can reach."""
    table = golden[name]
    if name == "design":
        for key, entry in table.items():
            if 1000 < int(key) < 2000:
                entry["cost"] = _nudge(entry["cost"])
    elif name == "execute":
        for entry in table["1"]["runs"].values():
            entry["seconds"][0] = _nudge(entry["seconds"][0])
    elif name == "serve":
        table["1"]["stream_sha256"] = _flip(table["1"]["stream_sha256"])
    elif name == "cotune":
        table["1"]["journal_sha256"] = _flip(table["1"]["journal_sha256"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=["design", "execute", "serve", "cotune"])
    args = parser.parse_args(argv)
    with open(run.GOLDEN) as handle:
        original = json.load(handle)
    caught = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=run.ROOT) as workdir:
        for name in args.workload or ["design", "execute", "serve", "cotune"]:
            golden = json.loads(json.dumps(original))
            corrupt(golden, name)
            path = os.path.join(workdir, f"golden-{name}.json")
            with open(path, "w") as handle:
                json.dump(golden, handle)
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--golden", path],
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = (proc.returncode == 0 and result.get("correct") is False
                  and result.get("failed", 0) >= 1)
            caught = caught and ok
            print(f"selftest: {name}: corrupted golden "
                  f"{'counted as failed' if ok else 'NOT caught'} "
                  f"(failed {result.get('failed')} of "
                  f"{result.get('attempted')})")
    return 0 if caught else 1


if __name__ == "__main__":
    raise SystemExit(main())
