"""Command-line front door: run inference chains, emit exact reference
constants, or run the validation battery.

    modnet infer --out runs/demo
    modnet infer --config my_experiment.json --chains 4 --seed 7
    modnet oracle --out tests/fixtures
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
import math
import os
import sys
from importlib import resources
from pathlib import Path

from . import outlier_oracle, validation
from .experiment import (
    ConfigError,
    load_config,
    make_out_dir,
    parse_config,
    read_config_document,
    run_experiment,
)
from .interface import ModnetError

log = logging.getLogger("modnet.cli")

DEFAULT_FIXTURES = "tests/fixtures/oracle_fixtures.json"
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


def _require_object(doc, path) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return doc


def _count(name: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
    return v


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


# -- oracle -------------------------------------------------------------------


def cmd_oracle(args) -> int:
    path = make_out_dir(args.out or ".") / "oracle_fixtures.json"
    fixtures = outlier_oracle.compute_fixtures()
    outlier_oracle.write_fixtures(path, fixtures)
    print(f"wrote {path} ({len(fixtures)} top-level keys)")
    return 0


# -- validate -----------------------------------------------------------------


def _finite_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _check_fixtures(fixtures: dict, path) -> None:
    """The three constants the battery reads, present and of the right type:
    by-switch maps with entries "0" and "1", and a posterior number, all
    finite."""
    missing = {"switch_marginal", "log_evidence_by_switch",
               "posterior_switch_one"} - set(fixtures)
    if missing:
        raise ConfigError(f"fixtures file {path} lacks {sorted(missing)}")
    for key in ("switch_marginal", "log_evidence_by_switch"):
        by_switch = fixtures[key]
        if not (isinstance(by_switch, dict) and all(
                _finite_number(by_switch.get(k)) for k in ("0", "1"))):
            raise ConfigError(f"fixtures file {path}: {key!r} must map "
                              f'"0" and "1" to finite numbers, got {by_switch!r}')
    if not _finite_number(fixtures["posterior_switch_one"]):
        raise ConfigError(f"fixtures file {path}: 'posterior_switch_one' must be "
                          f"a finite number, got {fixtures['posterior_switch_one']!r}")


def cmd_validate(args) -> int:
    doc: dict = {}
    if args.config is not None:
        doc = _require_object(read_config_document(args.config), args.config)
        unknown = set(doc) - {"fixtures", "iterations", "chains", "workers", "out"}
        if unknown:
            raise ConfigError(
                f"unknown validate config fields: {', '.join(sorted(unknown))}"
            )
        for key in ("fixtures", "out"):
            if key in doc and not isinstance(doc[key], str):
                raise ConfigError(f"{key} must be a path string, got {doc[key]!r}")

    fixtures_path = Path(doc.get("fixtures", DEFAULT_FIXTURES))
    iterations = args.iters if args.iters is not None else doc.get("iterations")
    chains = args.chains if args.chains is not None else doc.get("chains")
    workers = args.workers if args.workers is not None else doc.get("workers", 1)
    out = args.out if args.out is not None else doc.get("out")
    if iterations is not None:
        iterations = _count("iterations", iterations)
    if chains is not None:
        chains = _count("chains", chains)
    workers = _count("workers", workers)

    if not fixtures_path.is_file():
        raise ConfigError(
            f"fixtures file {fixtures_path} not found; "
            f"run `modnet oracle --out {fixtures_path.parent}` first"
        )
    fixtures = _require_object(
        read_config_document(fixtures_path), fixtures_path
    )
    _check_fixtures(fixtures, fixtures_path)
    if out is not None:
        make_out_dir(out)

    log.info("validating against %s", fixtures_path)
    results = validation.run_all(
        fixtures=fixtures,
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
        description="Inference over module networks: chains, oracles, checks.",
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
        "oracle",
        help="enumerate exact reference constants and write "
        "oracle_fixtures.json (idempotent)",
    )
    p.add_argument("--out", help="output directory (default .)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser(
        "validate",
        help="run the acceptance battery against an oracle fixtures file",
    )
    p.add_argument("--config", help="JSON with optional fixtures/iterations/"
                   "chains/workers/out fields")
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
