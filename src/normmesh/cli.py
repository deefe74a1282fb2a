"""Command line front end.

Subcommands: dims, bounds, mesh, embed, distort, entropy.  Reports are
JSON (default) or flattened CSV, written to stdout or --out.  With
--no-timestamp the output is a pure function of the arguments, byte for
byte; ``--seed`` is only echoed and changes no result.  Each subcommand accepts only the flags it reads, spelled
out in full.  Exit codes: 0 success, 2 validation, input or argument
error, 3 violated certificate or precision audit.  Each handler imports
the modules it uses: ``bounds`` and ``entropy`` run without loading numpy,
and their closed forms, like a ``--schedule``, compute in the standard
library's ``decimal``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import NormMeshError, ValidationError, check_int, report_error

if TYPE_CHECKING:
    from . import landau, sets


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _parse_reals(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated reals: {exc}") from exc
    if not values:
        raise ValidationError(f"{flag} received no values")
    return values


def _parse_schedule(text: str) -> tuple[int, int, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError("--schedule expects s,k,chat")
    try:
        s, k = int(parts[0]), int(parts[1])
        chat = float(parts[2])
    except ValueError as exc:
        raise ValidationError(f"--schedule expects s,k,chat as int,int,real: {exc}") from exc
    return s, k, chat


def _set_from_args(args) -> sets.CompactSetModel:
    from . import sets

    kind = args.set
    n = args.n
    params = _parse_reals(args.params, "--params") if args.params else None
    if kind == "box":
        if params is None:
            pairs = [(-1.0, 1.0)] * n
        else:
            if len(params) != 2 * n:
                raise ValidationError(
                    f"box in R^{n} expects 2n = {2 * n} params (lo,hi per axis), "
                    f"got {len(params)}")
            pairs = [(params[2 * i], params[2 * i + 1]) for i in range(n)]
        return sets.box(pairs, args.resolution)
    if kind in ("ball", "sphere"):
        if params is None:
            center, radius = [0.0] * n, 1.0
        else:
            if len(params) != n + 1:
                raise ValidationError(
                    f"{kind} in R^{n} expects n+1 = {n + 1} params (center, radius), "
                    f"got {len(params)}")
            center, radius = params[:n], params[n]
        build = sets.ball if kind == "ball" else sets.sphere
        return build(center, radius, args.resolution)
    if kind == "cloud":
        if not args.cloud:
            raise ValidationError("--cloud <path> is required with --set cloud")
        return sets.load_point_cloud(args.cloud, n)
    raise ValidationError(f"unknown set kind {kind!r}")


def _meta(args, anchors: list[str], seed: int | None = None,
          grid_size: int | None = None) -> dict:
    meta = {
        "tool": "normmesh",
        "version": __version__,
        "seed": seed,
        "grid_size": grid_size,
        "paper_anchor": anchors,
    }
    if not args.no_timestamp:
        from datetime import datetime, timezone

        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _cmd_dims(args) -> dict:
    from . import polyspace, sets

    space = polyspace.poly_space(args.n, args.d)
    report = {
        "command": "dims",
        "inputs": {"n": args.n, "d": args.d},
        "dim_full": space.dim,
    }
    anchors = ["space-dim"]
    if args.set is not None:
        model = _set_from_args(args)
        pts = sets.grid(model, space.dim)
        rank = polyspace._grid_rank(space, pts)
        report["inputs"]["set"] = model.describe()
        report["trace_dimension"] = rank
        report["determining"] = rank == space.dim
        anchors.append("trace-dim")
        report["meta"] = _meta(args, anchors, grid_size=int(pts.shape[0]))
    else:
        report["meta"] = _meta(args, anchors)
    return report


def _cmd_bounds(args) -> dict:
    from . import bounds

    report = bounds.poly_bound_report(args.n, args.d)
    values = report.to_json_values()
    anchors = [row[2] for row in values]
    inputs = dict(report.inputs)
    if args.schedule:
        s, k, chat = _parse_schedule(args.schedule)
        extra = bounds.schedule_bound_report(args.d, k, chat, s).to_json_values()
        values += extra
        anchors += [row[2] for row in extra]
        inputs.update({"s": s, "k": k, "c_hat": chat})
    return {
        "command": "bounds",
        "inputs": inputs,
        "values": values,
        "meta": _meta(args, list(dict.fromkeys(anchors))),
    }


def _cmd_mesh(args) -> dict:
    from . import meshgen, polyspace

    model = _set_from_args(args)
    space = polyspace.poly_space(args.n, args.d)
    node_set = meshgen.select_nodes(space, model)
    return {
        "command": "mesh",
        "inputs": {
            "n": args.n, "d": args.d, "set": model.describe(),
            "resolution": args.resolution, "seed": args.seed,
        },
        "node_set": node_set.to_json_dict(),
        "grid_constant": node_set.grid_constant,
        "meta": _meta(args, ["norming-nodes"], seed=args.seed,
                      grid_size=node_set.grid_size),
    }


def _build_certificate(args) -> landau.EmbeddingCertificate:
    from . import landau, polyspace

    model = _set_from_args(args)
    space = polyspace.poly_space(args.n, args.d)
    if args.schedule is not None:
        s, k, chat = _parse_schedule(args.schedule)
        p, c = landau.power_schedule(args.d, k, chat, s)
        return landau.embed(space, model, p, schedule_c=c)
    return landau.embed(space, model, args.p)


def _cmd_embed(args) -> dict:
    cert = _build_certificate(args)
    anchors = ["power-embedding"] + (["power-schedule"] if args.schedule else [])
    return {
        "command": "embed",
        "inputs": {
            "n": args.n, "d": args.d, "p": cert.p, "set": cert.set_model.describe(),
            "resolution": args.resolution, "seed": args.seed,
        },
        "certificate": {**cert.to_json_dict(), "seed": args.seed,
                        "grid_size": cert.grid_size},
        "meta": _meta(args, anchors, seed=args.seed, grid_size=cert.grid_size),
    }


def _cmd_distort(args) -> dict:
    from . import landau

    # --trials and --seed change no result; they stay so that existing
    # command lines run, and are checked before node selection at degree d*p
    check_int(args.trials, "trials")
    check_int(args.seed, "seed", minimum=0)
    cert = _build_certificate(args)
    landau.estimate_distortion(cert)
    anchors = ["power-embedding", "distortion-probe"]
    if args.schedule:
        anchors.append("power-schedule")
    return {
        "command": "distort",
        "inputs": {
            "n": args.n, "d": args.d, "p": cert.p, "set": cert.set_model.describe(),
            "resolution": args.resolution, "seed": args.seed, "trials": args.trials,
        },
        "certificate": {**cert.to_json_dict(), "seed": args.seed,
                        "grid_size": cert.grid_size},
        "meta": _meta(args, anchors, seed=args.seed, grid_size=cert.grid_size),
    }


def _cmd_entropy(args) -> dict:
    from . import bounds

    if args.schedule:
        _, k, chat = _parse_schedule(args.schedule)
    elif args.n is not None:
        k, chat = args.n, math.exp(2 * args.n)
    else:
        raise ValidationError("entropy needs --schedule s,k,chat or --n for defaults")
    if args.nbar is not None:
        nbar = args.nbar
    elif args.n is not None:
        # polyspace.dim_full, without importing numpy
        n = check_int(args.n, "number of variables")
        d = check_int(args.d, "degree", minimum=0)
        nbar = math.comb(d + n, n)
    else:
        raise ValidationError("entropy needs --nbar or --n to size the blocks")
    report = bounds.entropy_chain(args.d, k, chat, nbar, args.eps)
    values = report.to_json_values()
    return {
        "command": "entropy",
        "inputs": dict(report.inputs),
        "values": values,
        "meta": _meta(args, [row[2] for row in values]),
    }


_COMMANDS = {
    "dims": _cmd_dims,
    "bounds": _cmd_bounds,
    "mesh": _cmd_mesh,
    "embed": _cmd_embed,
    "distort": _cmd_distort,
    "entropy": _cmd_entropy,
}


def _flatten(value, prefix: str, rows: list[tuple[str, object]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{prefix}{key}." if prefix else f"{key}.", rows)
        return
    if isinstance(value, list):
        # Only formula triples flatten; node coordinate lists stay JSON-only.
        for item in value:
            if isinstance(item, list) and len(item) == 3 and isinstance(item[0], str) \
                    and not isinstance(item[1], (list, dict)):
                rows.append((f"{prefix}{item[0]}", item[1]))
        return
    rows.append((prefix[:-1] if prefix.endswith(".") else prefix, value))


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    rows: list[tuple[str, object]] = []
    _flatten(report, "", rows)
    lines = ["key,value"]
    for key, value in rows:
        text = "" if value is None else str(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{key},{text}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    payload = _render(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _build_parser() -> _Parser:
    """One subparser per command, holding only the flags that command reads."""
    parser = _Parser(prog="normmesh", allow_abbrev=False,
                     description="Certified norming meshes and embedding bounds "
                                 "for polynomial spaces on compact sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {name: sub.add_parser(name, help=help_text, description=help_text,
                                 allow_abbrev=False)
            for name, help_text in (
                ("dims", "space dimension and grid trace rank"),
                ("bounds", "closed-form mesh sizes and distortion constants"),
                ("mesh", "select and certify a norming node set"),
                ("embed", "build a sup-norm embedding certificate"),
                ("distort", "embed plus the exact grid distortion: the largest "
                            "grid-to-node sup ratio of any member"),
                ("entropy", "metric entropy budget for an embedded family"))}
    for name in ("dims", "bounds", "mesh", "embed", "distort"):
        cmds[name].add_argument("--n", type=int, required=True)
        cmds[name].add_argument("--d", type=int, required=True)
    for name in ("dims", "mesh", "embed", "distort"):
        cmds[name].add_argument("--set", choices=["box", "ball", "sphere", "cloud"],
                                default=None if name == "dims" else "box")
        cmds[name].add_argument("--params", help="comma-separated reals for the set")
        cmds[name].add_argument("--cloud", help="path to a point cloud text file")
        cmds[name].add_argument("--resolution", type=int, default=101)
    for name in ("mesh", "embed", "distort"):
        cmds[name].add_argument("--seed", type=int, default=0,
                                help="echoed in the report; changes no result")
    for name in ("embed", "distort"):
        power = cmds[name].add_mutually_exclusive_group(required=True)
        power.add_argument("--p", type=int)
        power.add_argument("--schedule", help="s,k,chat")
    cmds["distort"].add_argument("--trials", type=int, default=32,
                                 help="checked and echoed; changes no result")
    cmds["bounds"].add_argument("--schedule", help="s,k,chat")
    entropy = cmds["entropy"]
    entropy.add_argument("--d", type=int, required=True)
    entropy.add_argument("--eps", type=float, required=True)
    entropy.add_argument("--n", type=int)
    entropy.add_argument("--schedule", help="s,k,chat")
    entropy.add_argument("--nbar", type=int)
    for cmd in cmds.values():
        cmd.add_argument("--out")
        cmd.add_argument("--format", choices=["json", "csv"], default="json")
        cmd.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = _COMMANDS[args.command](args)
        _emit(report, args)
    except (NormMeshError, OSError) as exc:
        return report_error(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
