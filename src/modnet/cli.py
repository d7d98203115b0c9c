"""Command-line front door: run inference chains, or run the validation
battery against exact answers the oracle enumerates on the spot.

    modnet infer --out runs/demo
    modnet infer --config my_experiment.json --chains 4 --seed 7
    modnet validate --iters 100

Every output is a deterministic function of the config. Seeds are required
rather than defaulted from the clock, so rerunning a command reproduces its
files byte for byte.

Exit codes: 0 success, 1 a validation criterion failed, 2 configuration
error (unparseable JSON, unknown fields, missing files, an output directory
that cannot be created), 3 any other error the package raises on purpose (a
ModnetError: a schema violation, a degenerate trace, a bad network). Set
MODNET_LOG=INFO or DEBUG for progress output on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from importlib import resources
from pathlib import Path

from . import validation
from .experiment import (
    ConfigError,
    check_count,
    load_config,
    make_out_dir,
    parse_config,
    read_config_document,
    run_experiment,
)
from .interface import ModnetError

log = logging.getLogger("modnet.cli")

LOG_LEVELS = ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG")


def _setup_logging() -> None:
    level = os.environ.get("MODNET_LOG", "WARNING").upper()
    if level not in LOG_LEVELS:
        raise ConfigError(
            f"MODNET_LOG={level!r} is not one of {', '.join(LOG_LEVELS)}"
        )
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )


# -- infer --------------------------------------------------------------------


def _experiment_overrides(args) -> dict:
    pairs = {
        "seed": args.seed,
        "chains": args.chains,
        "iterations": args.iters,
        "particles": args.particles,
        "train_samples": args.train_samples,
        "workers": args.workers,
        "out": args.out,
    }
    return {k: v for k, v in pairs.items() if v is not None}


def cmd_infer(args) -> int:
    overrides = _experiment_overrides(args)
    if args.config is None:
        doc = json.loads(
            resources.files("modnet")
            .joinpath("configs/default_experiment.json")
            .read_text(encoding="utf-8")
        )
        cfg = parse_config({**doc, **overrides})
    else:
        cfg = load_config(args.config, overrides=overrides)

    out_dir = Path(cfg.out) if cfg.out else Path("modnet_out")
    log.info(
        "network %s: %d chain(s) x %d iterations, seed %d",
        cfg.network, cfg.chains, cfg.iterations, cfg.seed,
    )
    summary = run_experiment(cfg, out_dir=out_dir)

    combined = summary["combined"]
    for site, rates in sorted(combined["value_rates"].items()):
        shares = " ".join(
            f"P({site}={v})={r:.6g}" for v, r in sorted(rates.items())
        )
        acc = combined["acceptance_rates"].get(site)
        tail = f" | acceptance {acc:.4g}" if acc is not None else ""
        print(f"site {site}: {shares}{tail}")
    names = " ".join(f"trace_chain{i}.csv" for i in range(cfg.chains))
    print(f"wrote {names} summary.json in {out_dir}")
    return 0


# -- validate -----------------------------------------------------------------


def cmd_validate(args) -> int:
    doc: dict = {}
    if args.config is not None:
        doc = read_config_document(args.config)
        if not isinstance(doc, dict):
            raise ConfigError(f"{args.config}: config root must be a JSON object")
        unknown = set(doc) - {"iterations", "chains", "workers", "out"}
        if unknown:
            raise ConfigError(
                f"unknown validate config fields: {', '.join(sorted(unknown))}"
            )
        if "out" in doc and not isinstance(doc["out"], str):
            raise ConfigError(f"out must be a path string, got {doc['out']!r}")

    iterations = args.iters if args.iters is not None else doc.get("iterations")
    chains = args.chains if args.chains is not None else doc.get("chains")
    workers = args.workers if args.workers is not None else doc.get("workers", 1)
    out = args.out if args.out is not None else doc.get("out")
    if iterations is not None:
        iterations = check_count("iterations", iterations)
    if chains is not None:
        chains = check_count("chains", chains)
    workers = check_count("workers", workers)

    if out is not None:
        make_out_dir(out)

    results = validation.run_all(
        out_dir=out,
        workers=workers,
        iterations=iterations,
        chains=chains,
    )
    for r in results:
        print(r.line())
    failed = sum(1 for r in results if r.passed is False)
    passed = sum(1 for r in results if r.passed)
    skipped = sum(1 for r in results if r.passed is None)
    print(f"{passed} passed, {failed} failed, {skipped} skipped")
    return 1 if failed else 0


# -- plumbing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="modnet",
        description="Inference over module networks: chains and checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "infer",
        help="run MH chains over a configured network, write trace CSVs "
        "and a summary JSON",
    )
    p.add_argument("--config", help="experiment config JSON (default: "
                   "packaged outlier-regression demo)")
    p.add_argument("--out", help="output directory (default from config, "
                   "else ./modnet_out)")
    p.add_argument("--seed", type=int, help="master seed, unsigned 64-bit")
    p.add_argument("--chains", type=int, help="number of independent chains")
    p.add_argument("--iters", type=int, help="iterations per chain")
    p.add_argument("--particles", type=int, help="particle count for "
                   "sequential-Monte-Carlo modules")
    p.add_argument("--train-samples", type=int, help="forward samples for "
                   "inverse training (0 = exact tables)")
    p.add_argument("--workers", type=int, help="process pool size for chains")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser(
        "validate",
        help="run the acceptance battery against exact answers enumerated "
        "at start-up",
    )
    p.add_argument("--config", help="JSON with optional iterations/chains/"
                   "workers/out fields")
    p.add_argument("--out", help="directory to keep the chain artifacts of "
                   "a full-budget run (default: temporary); a reduced run "
                   "writes none there")
    p.add_argument("--iters", type=int, help="per-chain iteration budget; "
                   "below the full budget the statistical criteria are "
                   "reported as SKIPPED")
    p.add_argument("--chains", type=int, help="chain budget; same skip rule")
    p.add_argument("--workers", type=int, help="process pool size for chains "
                   "and criterion 2's module groups")
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ModnetError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
