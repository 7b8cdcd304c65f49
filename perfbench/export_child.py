"""Export the serve-* checkpoint and the offline reference rankings.

Runs ``repro export`` (through ``repro.cli``) for CG-KGR on the movie
profile with the dense index shipped, then reloads the checkpoint and
writes, for every user, the offline protocol's answer:
``TopKIndex.build(model, mask_splits=[train, valid]).topk`` items and
scores, plus the masked train+valid items.  ``run.py`` checks every
served response against this file.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import blas_info, write_json  # noqa: E402

DATASET = "movie"
EXPORT_EPOCHS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--refs", required=True)
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main
    from repro.eval.ranking import build_mask_table
    from repro.serve import TopKIndex, load_checkpoint

    code = repro_main([
        "export", "--dataset", DATASET, "--model", "cg-kgr",
        "--seed", str(args.seed), "--epochs", str(EXPORT_EPOCHS),
        "--eval-users", "20", "--index-mode", "dense",
        "--out", args.checkpoint,
    ])
    if code:
        return code
    model = load_checkpoint(args.checkpoint)
    ds = model.dataset
    index = TopKIndex.build(model, mask_splits=[ds.train, ds.valid])
    items, scores = index.topk(list(range(ds.n_users)), args.k)
    masked = build_mask_table([ds.train, ds.valid], ds.n_users)
    write_json(args.refs, {
        "n_users": int(ds.n_users),
        "n_items": int(ds.n_items),
        "k": args.k,
        "items": items.tolist(),
        "scores": scores.tolist(),
        "masked": [m.tolist() for m in masked],
        "host": blas_info(),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
