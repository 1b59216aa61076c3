#!/usr/bin/env python3
"""Same-answers gate on the 720-job batch_loop campaign.

    python3 tools/batch_loop_digests.py [--perfbench BIN] [--mui BIN]

Run from the root of a source checkout after `python3 perfbench/run.py
--selftest`, which builds both binaries into $CARGO_TARGET_DIR (default
.bench_build)/perfbench. The script generates the seeded campaign with
`perfbench gen --workload batch_loop --seed 1`, runs `mui batch
jobs.manifest --jobs 1 --out ... --journal-out ...` from the campaign
directory, masks both files with tools/golden_mask.cmake (every `*Ms`
field, ulid and pid), and writes one line per job: its name and the SHA-256
of its masked row followed by its journal lines, in order. The lines are
compared with tests/golden/batch_loop_seed1.digests; with
MUI_REGENERATE_GOLDENS=1 they replace that file instead. Exit 0 when they
match (or were rewritten), 1 when they differ, 2 when a step fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden", "batch_loop_seed1.digests")


def fail(message):
    print(f"batch_loop_digests: {message}", file=sys.stderr)
    sys.exit(2)


def run(args, cwd=None, ok=(0,)):
    proc = subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode not in ok:
        fail(f"{' '.join(args)} exited {proc.returncode}:\n"
             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def masked_lines(path):
    out = path + ".masked"
    run(["cmake", f"-DIN={path}", f"-DOUT={out}", "-P",
         os.path.join(HERE, "golden_mask.cmake")])
    with open(out, encoding="utf-8") as f:
        return f.read().splitlines()


def digests(perfbench, mui, scratch):
    campaign = os.path.join(scratch, "campaign")
    run([perfbench, "gen", "--workload", "batch_loop", "--seed", "1",
         "--out", campaign])
    rows = os.path.join(scratch, "rows.jsonl")
    journal = os.path.join(scratch, "journal.jsonl")
    # Exit 1 is a verdict (the campaign holds real errors); 2 is not.
    run([mui, "batch", "jobs.manifest", "--jobs", "1", "--out", rows,
         "--journal-out", journal], cwd=campaign, ok=(0, 1))
    by_job = {}
    for line in masked_lines(journal):
        event = json.loads(line)
        if "run" in event:
            by_job.setdefault(event["run"], []).append(line)
    out = []
    for line in masked_lines(rows):
        row = json.loads(line)
        if row.get("type") != "job":
            continue
        text = "".join(l + "\n" for l in [line] + by_job.get(row["name"], []))
        out.append(f"{row['name']} "
                   f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}")
    return out


def main():
    base = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--perfbench", default=os.path.join(base, "perfbench"))
    parser.add_argument("--mui", default=os.path.join(base, "mui"))
    args = parser.parse_args()
    for binary in (args.perfbench, args.mui):
        if not os.access(binary, os.X_OK):
            fail(f"{binary} is missing; run python3 perfbench/run.py "
                 "--selftest first")
    with tempfile.TemporaryDirectory(prefix="batch_loop_digests.") as scratch:
        got = digests(os.path.abspath(args.perfbench),
                      os.path.abspath(args.mui), scratch)
    if os.environ.get("MUI_REGENERATE_GOLDENS") == "1":
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write("".join(l + "\n" for l in got))
        print(f"wrote {GOLDEN} ({len(got)} jobs)")
        return 0
    with open(GOLDEN, encoding="utf-8") as f:
        want = f.read().splitlines()
    differ = [f"  golden {w}\n  run    {g}" for w, g in zip(want, got) if w != g]
    if len(want) != len(got):
        differ.append(f"  {len(want)} golden jobs, {len(got)} run")
    if differ:
        print(f"{len(differ)} of {len(want)} job digests differ from "
              f"{os.path.relpath(GOLDEN, ROOT)}:")
        print("\n".join(differ[:20]))
        return 1
    print(f"same answers: {len(got)} job digests match "
          f"{os.path.relpath(GOLDEN, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
