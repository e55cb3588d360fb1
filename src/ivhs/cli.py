"""Command-line front end.

Five subcommands: ``profile`` (closed-form Hodge data over n/d grids),
``monotonicity`` (descent certificates for the ratio h^{n-1,1}/h^{n,0}),
``jacobian`` (graded dimension tables of a Jacobian ring), ``symm``
(symmetrizer experiments, witness constructions, and the canonical
geometric candidate), and ``verify-theorem`` (the full pipeline).

Canonical output is JSON on stdout: an envelope with the command name, the
resolved configuration, a ``meta.generated_at`` timestamp, and the rows or
report.  Keys are sorted and separators are compact, so runs with equal
configuration are byte-identical apart from the timestamp.  Row tables can
be emitted as CSV instead via ``--format csv``.  Human-readable summaries
go to stderr, never stdout.

Exit codes: 0 success, 2 usage error, 3 failed precondition (singular or
out-of-range input), 4 budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from .errors import (
    BudgetExceededError,
    PreconditionError,
    SingularInputError,
    dense_entry_budget,
    unknowns_budget,
)
from .fields import DEFAULT_PRIME, FieldSpec
from .jacobian import JacobianContext, graded_table
from .polyring import parse_poly
from .symmetrizers import (
    CompositionSetting,
    genericity_experiment,
    lemma3_rank_one_construction,
    prop4_construction,
    symmetrizer_dimension,
)
from .theorem import (
    canonical_symmetrizer_check,
    fixture_id,
    inequality_check,
    monotonicity_check,
    profile,
    smoothness_gate,
    verify_theorem,
)


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved arguments of one invocation, echoed into the JSON envelope.

    Fields irrelevant to the command stay None and are dropped from the
    echo.  Budget caps appear only when overridden in the environment.
    """

    command: str
    format: str = "json"
    output: str | None = None
    n: object = None
    d: object = None
    d_min: int | None = None
    d_max: int | None = None
    degrees: list | None = None
    fermat: list | None = None
    poly: str | None = None
    num_vars: int | None = None
    prime: int | None = None
    seed: int | None = None
    trials: int | None = None
    k: int | None = None
    dims: list | None = None
    construction: str | None = None
    pair_sample: int | None = None
    socle_mode: str | None = None
    budget_entries: int | None = None
    max_unknowns: int | None = None

    def as_dict(self) -> dict:
        return {key: val for key, val in asdict(self).items() if val is not None}


@dataclass(frozen=True)
class Outcome:
    """What a subcommand produced: payload for the envelope, optional row
    table for CSV, and human summary lines for stderr."""

    config: RunConfig
    payload: dict
    rows: list | None
    human: list[str]


def _parse_range(text: str, what: str) -> list[int]:
    """``A..B`` (inclusive) or a single integer."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if lo > hi:
                raise UsageError(f"{what}: empty range {text!r}")
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise UsageError(f"{what}: expected an integer or A..B, got {text!r}")


def _parse_degree_list(text: str) -> list[int]:
    try:
        degrees = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"--m: expected comma-separated integers, got {text!r}")
    if not degrees or any(m < 0 for m in degrees):
        raise UsageError("--m: need at least one nonnegative degree")
    return degrees


def _field(prime: int) -> FieldSpec:
    try:
        return FieldSpec.prime(prime)
    except ValueError as exc:
        raise UsageError(f"--prime: {exc}")


def _load_context(ns) -> JacobianContext:
    field = _field(ns.prime)
    if ns.fermat is not None:
        if ns.num_vars is not None:
            raise UsageError("--num-vars only applies to --poly")
        n, d = ns.fermat
        return JacobianContext.fermat(n, d, field)
    try:
        text = Path(ns.poly).read_text()
    except OSError as exc:
        raise UsageError(f"--poly: cannot read {ns.poly}: {exc}")
    return JacobianContext(parse_poly(text, field, num_vars=ns.num_vars))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_profile(ns) -> Outcome:
    n_values = _parse_range(ns.n, "--n")
    if ns.d is not None:
        d_for = {n: _parse_range(ns.d, "--d") for n in n_values}
    else:
        offsets = _parse_range(ns.d_offset, "--d-offset")
        d_for = {n: [n + off for off in offsets] for n in n_values}
    if any(n < 1 for n in n_values):
        raise UsageError("--n: dimensions must be >= 1")
    if any(d < 2 for ds in d_for.values() for d in ds):
        raise UsageError("--d: degrees must be >= 2")
    rows = [profile(n, d).as_dict() for n in n_values for d in d_for[n]]
    for row in rows:
        n, d = row["n"], row["d"]
        row["in_theorem_range"] = n >= 3 and d >= n + 3
        row["inequalities_hold"] = (
            inequality_check(n, d) if row["in_theorem_range"] else None
        )
    config = RunConfig(
        command="profile",
        format=ns.format,
        output=ns.output,
        n=n_values,
        d=sorted({d for ds in d_for.values() for d in ds}),
    )
    human = [
        "n={n} d={d}: h_n0={h_n0} h_n1_1={h_n1_1} dim_E={dim_E} p={p}".format(**row)
        for row in rows
    ]
    return Outcome(config, {"rows": rows}, rows, human)


def cmd_monotonicity(ns) -> Outcome:
    rows, descending = monotonicity_check(ns.n, ns.d_min, ns.d_max)
    table = [row.as_dict() for row in rows]
    config = RunConfig(
        command="monotonicity",
        format=ns.format,
        output=ns.output,
        n=ns.n,
        d_min=ns.d_min,
        d_max=ns.d_max,
    )
    payload = {"rows": table, "summary": {"descending": descending}}
    human = [
        f"n={ns.n}, d from {ns.d_min} to {ns.d_max}: {len(table)} rows, "
        f"ratio strictly decreasing: {descending}"
    ]
    return Outcome(config, payload, table, human)


def cmd_jacobian(ns) -> Outcome:
    degrees = _parse_degree_list(ns.m)
    ctx = _load_context(ns)
    notes: list[str] = []
    smoothness_gate(ctx, ns.socle_mode, notes)
    rows = graded_table(ctx, degrees)
    config = RunConfig(
        command="jacobian",
        format=ns.format,
        output=ns.output,
        degrees=degrees,
        fermat=list(ns.fermat) if ns.fermat else None,
        poly=ns.poly,
        num_vars=ns.num_vars,
        prime=ns.prime,
        socle_mode=ns.socle_mode,
    )
    payload = {"fixture": fixture_id(ctx), "notes": notes, "rows": rows}
    human = [f"{fixture_id(ctx)} over F_{ns.prime}:"] + [
        "  R^{m}: dim {dimR} (ambient {dimS}, ideal rank {dimJ})".format(**row)
        for row in rows
    ]
    return Outcome(config, payload, rows, human)


def cmd_symm(ns) -> Outcome:
    modes = [ns.dims is not None, ns.construction is not None, ns.geometric is not None]
    if ns.construction is not None and ns.dims is None:
        raise UsageError("--construction needs --dims g0 g1 g2")
    if ns.geometric is not None and (ns.dims is not None or ns.k is not None):
        raise UsageError("--geometric does not take --dims or --k")
    if not any(modes):
        raise UsageError("need one of --dims --k, --construction --dims, or --geometric")

    if ns.geometric is not None:
        return _symm_geometric(ns)
    if ns.construction is not None:
        return _symm_construction(ns)
    if ns.k is None:
        raise UsageError("random experiments need --k")
    return _symm_random(ns)


def _symm_dims(ns) -> tuple[int, int, int]:
    g0, g1, g2 = ns.dims
    if min(g0, g1, g2) < 1:
        raise UsageError("--dims: all three dimensions must be >= 1")
    return g0, g1, g2


def _symm_random(ns) -> Outcome:
    g0, g1, g2 = _symm_dims(ns)
    setting = CompositionSetting(g0, g1, g2, field=_field(ns.prime))
    if ns.k < 1 or ns.trials < 1:
        raise UsageError("--k and --trials must be >= 1")
    report = genericity_experiment(setting, ns.k, ns.trials, seed=ns.seed)
    config = RunConfig(
        command="symm",
        format=ns.format,
        output=ns.output,
        dims=[g0, g1, g2],
        k=ns.k,
        trials=ns.trials,
        seed=ns.seed,
        prime=ns.prime,
    )
    human = [
        f"dims ({g0},{g1},{g2}) k={ns.k}, {ns.trials} trials: "
        f"{100 * report.zero_fraction:.1f}% zero-dimensional "
        f"(threshold 3p = {report.threshold})"
    ]
    return Outcome(config, {"report": report.as_dict()}, None, human)


def _symm_construction(ns) -> Outcome:
    g0, g1, g2 = _symm_dims(ns)
    field = _field(ns.prime)
    if ns.construction == "lemma3":
        if g1 != 1:
            raise UsageError("--construction lemma3 needs g1 = 1")
        subspace = lemma3_rank_one_construction(g0, g2, field)
    else:
        setting = CompositionSetting(g0, g1, g2, field=field)
        subspace = prop4_construction(setting, seed=ns.seed)
    dim = symmetrizer_dimension(subspace)
    config = RunConfig(
        command="symm",
        format=ns.format,
        output=ns.output,
        dims=[g0, g1, g2],
        construction=ns.construction,
        seed=ns.seed,
        prime=ns.prime,
    )
    report = {
        "construction": ns.construction,
        "g0": g0,
        "g1": g1,
        "g2": g2,
        "k": subspace.k,
        "symmetrizer_dimension": dim,
    }
    human = [
        f"{ns.construction} witness dims ({g0},{g1},{g2}): "
        f"k={subspace.k}, symmetrizer dimension {dim}"
    ]
    return Outcome(config, {"report": report}, None, human)


def _symm_geometric(ns) -> Outcome:
    kind, n_text, d_text = ns.geometric
    if kind != "fermat":
        raise UsageError("--geometric: only fermat fixtures are supported")
    try:
        n, d = int(n_text), int(d_text)
    except ValueError:
        raise UsageError("--geometric: n and d must be integers")
    ctx = JacobianContext.fermat(n, d, _field(ns.prime))
    notes: list[str] = []
    smoothness_gate(ctx, "auto", notes)
    result = canonical_symmetrizer_check(ctx, seed=ns.seed, pair_sample=ns.pair_sample)
    config = RunConfig(
        command="symm",
        format=ns.format,
        output=ns.output,
        fermat=[n, d],
        seed=ns.seed,
        prime=ns.prime,
        pair_sample=ns.pair_sample,
    )
    report = {
        "fixture": fixture_id(ctx),
        "canonical_symmetrizer": "nonzero" if result.nonzero else "zero",
        "symmetric": result.symmetric,
        "pairs_checked": result.pairs_checked,
        "notes": notes,
    }
    human = [
        f"canonical symmetrizer: {report['canonical_symmetrizer']}, "
        f"symmetric: {str(result.symmetric).lower()} "
        f"({result.pairs_checked} pairs checked)"
    ]
    return Outcome(config, {"report": report}, None, human)


def cmd_verify_theorem(ns) -> Outcome:
    ctx = _load_context(ns)
    report = verify_theorem(
        ctx, seed=ns.seed, pair_sample=ns.pair_sample, socle_mode=ns.socle_mode
    )
    config = RunConfig(
        command="verify-theorem",
        format=ns.format,
        output=ns.output,
        fermat=list(ns.fermat) if ns.fermat else None,
        poly=ns.poly,
        num_vars=ns.num_vars,
        prime=ns.prime,
        seed=ns.seed,
        pair_sample=ns.pair_sample,
        socle_mode=ns.socle_mode,
    )
    human = [
        f"{report.fixture}: verdict {report.verdict}",
        f"  dims {report.dims} (match closed forms: {report.dims_match})",
        f"  p0 injective: {report.p0_injective}, p1 injective: {report.p1_injective}",
        f"  canonical symmetrizer nonzero and symmetric: "
        f"{report.canonical_symmetrizer_nonzero} "
        f"({report.symmetrizer_pairs_checked} pairs)",
        f"  inequality holds: {report.inequality_holds}",
    ]
    human += [f"  note: {note}" for note in report.notes]
    return Outcome(config, {"report": report.as_dict()}, None, human)


# ---------------------------------------------------------------------------
# parser and emission
# ---------------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    """argparse type of the seed and the pair sample."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")


def _add_fixture_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--fermat", nargs=2, type=int, metavar=("N", "D"))
    group.add_argument("--poly", metavar="FILE", help="polynomial text file")
    sub.add_argument(
        "--num-vars",
        type=int,
        help="variable count for --poly when higher than any index used",
    )
    sub.add_argument("--prime", type=int, default=DEFAULT_PRIME)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivhs",
        description="Hodge-theoretic linear algebra for hypersurfaces",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("profile", help="closed-form Hodge data over an n/d grid")
    p.add_argument("--n", required=True, metavar="RANGE", help="dimension, A..B or int")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", metavar="RANGE", help="degree, A..B or int")
    group.add_argument("--d-offset", metavar="RANGE", help="degree as n + offset")
    _add_output_flags(p)
    p.set_defaults(func=cmd_profile)

    p = subs.add_parser("monotonicity", help="ratio descent certificates")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--d-min", required=True, type=int)
    p.add_argument("--d-max", required=True, type=int)
    _add_output_flags(p)
    p.set_defaults(func=cmd_monotonicity)

    p = subs.add_parser("jacobian", help="graded dimension table of a Jacobian ring")
    _add_fixture_flags(p)
    p.add_argument("--m", required=True, metavar="LIST", help="degrees, comma-separated")
    p.add_argument("--socle-mode", choices=("auto", "full", "cheap"), default="auto")
    _add_output_flags(p)
    p.set_defaults(func=cmd_jacobian)

    p = subs.add_parser("symm", help="symmetrizer spaces: experiments and witnesses")
    p.add_argument("--dims", nargs=3, type=int, metavar=("G0", "G1", "G2"))
    p.add_argument("--k", type=int, help="subspace dimension for random experiments")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--construction", choices=("lemma3", "prop4"))
    p.add_argument(
        "--geometric",
        nargs=3,
        metavar=("FERMAT", "N", "D"),
        help="canonical multiplication candidate, e.g. --geometric fermat 3 6",
    )
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--pair-sample", type=_nonnegative_int, default=60)
    _add_output_flags(p)
    p.set_defaults(func=cmd_symm)

    p = subs.add_parser("verify-theorem", help="full non-genericity pipeline")
    _add_fixture_flags(p)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--pair-sample", type=_nonnegative_int, default=60)
    p.add_argument("--socle-mode", choices=("auto", "full", "cheap"), default="auto")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify_theorem)

    return parser


def _csv_text(rows: list) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _emit(outcome: Outcome, budgets: dict) -> None:
    config = replace(outcome.config, **budgets)
    if config.format == "csv":
        if outcome.rows is None:
            raise UsageError("--format csv is only available for row tables")
        if not outcome.rows:
            raise UsageError("--format csv: no rows to write")
        text = _csv_text(outcome.rows)
    else:
        envelope = {
            "command": config.command,
            "config": config.as_dict(),
            "meta": {"generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds")},
            **outcome.payload,
        }
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
    for line in outcome.human:
        print(line, file=sys.stderr)
    if config.output is not None:
        try:
            Path(config.output).write_text(text)
        except OSError as exc:
            raise UsageError(f"--output: cannot write {config.output}: {exc}")
        print(f"wrote {config.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # Read the caps as the budget checks will, before the command runs,
        # so a value they reject fails before any work is done.
        budgets = dict(
            budget_entries=dense_entry_budget() if "IVHS_BUDGET_ENTRIES" in os.environ else None,
            max_unknowns=unknowns_budget() if "IVHS_MAX_UNKNOWNS" in os.environ else None,
        )
        _emit(ns.func(ns), budgets)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularInputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
