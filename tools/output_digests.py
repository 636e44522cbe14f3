"""Print a digest of every file that training, evaluating and comparing write.

    python3 tools/output_digests.py CONFIG.ini [--episodes 3] [--replications 2]
        [--schedulers "dqn random greedy_eft heft"] [--src DIR]

Loads the INI and trains for ``--episodes`` episodes with ``cmd_train``.
Then, with traces on and over ``--replications`` replications, it runs
``cmd_evaluate`` once per scheduler in ``--schedulers`` and ``cmd_compare``
once; ``dqn`` reuses the checkpoint just written. Prints
``sha256  relative-path`` for every file the commands wrote, sorted by
path: the checkpoint, the learning curve, the manifests, the workload
files, the traces and the result CSVs. An ``.npz`` archive gets one line
per member instead, ``sha256  path:member`` in member-name order (the
member's ``.npy`` bytes, header included), so a change to a checkpoint's
metadata alone shows as its ``:meta_json`` line.

``--src`` picks the package source to run (default: this checkout's
``src``), so one copy of the script can digest two checkouts. Outputs that
must not change are compared with

    python3 tools/output_digests.py CFG --src PARENT/src > parent.txt
    python3 tools/output_digests.py CFG --src CHANGE/src > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
import zipfile
from dataclasses import replace
from pathlib import Path


def digests(root: Path) -> list[str]:
    lines = []
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        name = path.relative_to(root)
        if path.suffix != ".npz":
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
            continue
        with zipfile.ZipFile(path) as archive:
            for member in sorted(archive.namelist()):
                digest = hashlib.sha256(archive.read(member)).hexdigest()
                lines.append(f"{digest}  {name}:{member.removesuffix('.npy')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="experiment config file (INI)")
    parser.add_argument("--episodes", type=int, default=3)
    parser.add_argument("--replications", type=int, default=2)
    parser.add_argument("--schedulers", default="dqn random greedy_eft heft")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the mecsched package")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from mecsched import experiment  # before numpy: the package pins BLAS to one thread

    cfg = experiment.load_config(args.config)
    cfg = replace(cfg, agent=replace(cfg.agent, episodes=args.episodes),
                  replications=args.replications, schedulers=tuple(args.schedulers.split()),
                  write_traces=True)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = experiment.cmd_train(cfg, root / "train")
        for name in cfg.schedulers:
            experiment.cmd_evaluate(cfg, root / "evaluate" / name,
                                    checkpoint=paths["checkpoint"], scheduler=name)
        experiment.cmd_compare(cfg, root / "compare", checkpoint=paths["checkpoint"])
        print("\n".join(digests(root)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
