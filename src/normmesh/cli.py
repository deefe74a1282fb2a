"""Command line front end.

Subcommands: dims, bounds, mesh, embed, distort, entropy.  Reports are
JSON (default) or flattened CSV, written to stdout or --out.  With
--no-timestamp the output is a pure function of the arguments, byte for
byte.  Each subcommand accepts only the flags it reads, spelled out in
full, and each ``--set`` only the set flags it reads; ``--seed`` and
``distort --trials`` are checked, by ``_run_command`` alone, and ignored,
as no command draws a random number.
Exit codes: 0 success, 2 validation, input or argument error, 3 violated
certificate or precision audit.  ``main`` returns the code; ``run``, the
process entry point, exits with it without interpreter teardown
(``errors.exit_process``), unless a flush fails: the interpreter then
reports it and exits 120.  An ``--out`` that is empty, a directory or an
unwritable file, or whose directory is missing or not writable, is
refused before any computation; an empty ``--params``, ``--schedule`` or
``--cloud``, or an empty ``--params`` field, exits 2 as a malformed one
does.  Each handler imports the modules it uses: ``bounds``, ``entropy``,
``dims`` without ``--set`` and ``dims --set box`` on a box whose samples
are provably distinct run without loading numpy (``dims`` and
``entropy``'s default block dimension read the space dimension from
``errors.dim_full``; such a box's trace dimension is the exact count
``errors.dim_tensor`` of ``sets.axis_counts``, and no grid is built), and
the closed forms, like a ``--schedule``, compute in the standard
library's ``decimal``.  Every report is
{command, inputs, <body>, meta}, built by ``_report``, each handler
laying out its inputs (every flag that shapes the result) and body from
the flags and the library's measured values.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import sys
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .errors import (ValidationError, check_dense, check_int, check_out_path, dim_full,
                     dim_tensor, exit_code_of, exit_process)

if TYPE_CHECKING:
    from . import sets


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _parse_reals(text: str, flag: str) -> list[float]:
    fields = text.split(",")
    if not any(fields):
        raise ValidationError(f"{flag} received no values")
    if not all(fields):
        raise ValidationError(f"{flag} has an empty field: {text!r}")
    try:
        return [float(tok) for tok in fields]
    except ValueError as exc:
        raise ValidationError(f"{flag} expects comma-separated reals: {exc}") from exc


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


def _refuse_unread_set_flags(args) -> None:
    """Exit 2 on a set flag that ``args.set`` does not read (dims without
    --set reads none)."""
    reads = {None: (), "cloud": ("cloud",)}.get(args.set, ("params", "resolution"))
    for flag in ("params", "cloud", "resolution"):
        if getattr(args, flag) is not None and flag not in reads:
            where = f"--set {args.set}" if args.set else "dims without --set"
            raise ValidationError(f"--{flag} is not read by {where}")


def _set_from_args(args) -> sets.CompactSetModel:
    from . import sets

    _refuse_unread_set_flags(args)
    kind, n = args.set, args.n
    if kind == "cloud":
        if args.cloud is None:
            raise ValidationError("--cloud <path> is required with --set cloud")
        return sets.load_point_cloud(args.cloud, n)
    resolution = 101 if args.resolution is None else args.resolution
    params = None if args.params is None else _parse_reals(args.params, "--params")
    if kind == "box":
        if params is None:
            pairs = [(-1.0, 1.0)] * n
        else:
            if len(params) != 2 * n:
                raise ValidationError(
                    f"box in R^{n} expects 2n = {2 * n} params (lo,hi per axis), "
                    f"got {len(params)}")
            pairs = [(params[2 * i], params[2 * i + 1]) for i in range(n)]
        return sets.box(pairs, resolution)
    if params is None:
        center, radius = [0.0] * n, 1.0
    else:
        if len(params) != n + 1:
            raise ValidationError(
                f"{kind} in R^{n} expects n+1 = {n + 1} params (center, radius), "
                f"got {len(params)}")
        center, radius = params[:n], params[n]
    build = sets.ball if kind == "ball" else sets.sphere
    return build(center, radius, resolution)


def _report(args, inputs: dict, body: dict, anchors, grid_size: int | None = None) -> dict:
    """Every command's report: {command, inputs, <body>, meta}, ``anchors``
    naming the paper labels it rests on, in order of first mention."""
    meta = {
        "tool": "normmesh",
        "version": __version__,
        "grid_size": grid_size,
        "paper_anchor": list(dict.fromkeys(anchors)),
    }
    if not args.no_timestamp:
        from datetime import datetime, timezone

        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return {"command": args.command, "inputs": inputs, **body, "meta": meta}


def _cmd_dims(args) -> dict:
    inputs = {"n": args.n, "d": args.d}
    m = dim_full(args.n, args.d)
    body = {"dim_full": m}
    if args.set is None:
        _refuse_unread_set_flags(args)
        return _report(args, inputs, body, ["space-dim"])
    from . import sets

    model = _set_from_args(args)
    counts = sets.axis_counts(model)
    if counts is None:
        from . import polyspace

        pts = sets.grid(model, m)
        size = int(pts.shape[0])
        rank = polyspace.trace_dimension(polyspace.poly_space(args.n, args.d), pts)
    else:
        # a box whose samples are provably distinct: the exact count, with
        # no grid built, after the grid's refusals and the matrix refusal
        # that trace_dimension would make
        size = sets.check_grid(model)
        check_dense(size, m, "evaluation matrix")
        rank = dim_tensor(args.d, counts)
    inputs["set"] = model.describe()
    body.update(trace_dimension=rank, determining=rank == m)
    return _report(args, inputs, body, ["space-dim", "trace-dim"], size)


def _cmd_bounds(args) -> dict:
    from . import bounds

    values = bounds.poly_bound_report(args.n, args.d).to_json_values()
    inputs = {"n": args.n, "d": args.d}
    if args.schedule is not None:
        s, k, chat = _parse_schedule(args.schedule)
        values += bounds.schedule_bound_report(args.d, k, chat, s).to_json_values()
        inputs.update(s=s, k=k, c_hat=chat)
    return _report(args, inputs, {"values": values}, (row[2] for row in values))


def _cmd_mesh(args) -> dict:
    from . import meshgen, polyspace, sets

    # n and d are checked before the set, which --n sizes
    space = polyspace.poly_space(args.n, args.d)
    model = _set_from_args(args)
    node_set = meshgen.select_nodes(space, sets.grid(model, space.dim))
    inputs = {"n": args.n, "d": args.d, "set": model.describe(),
              "resolution": model.resolution}
    body = {"node_set": {"degree": args.d, "ambient_dim": args.n,
                         "points": node_set.nodes.tolist(),
                         "log_abs_det": node_set.log_abs_det,
                         "swap_optimal": node_set.swap_optimal,
                         "lagrange_sup": node_set.lagrange_sup, "sweeps": node_set.sweeps},
            "grid_constant": node_set.grid_constant}
    return _report(args, inputs, body, ["norming-nodes"], node_set.grid_size)


def _cmd_certificate(args) -> dict:
    """``embed``, and ``distort``, which adds the exact distortion."""
    from . import landau, polyspace

    distort = args.command == "distort"
    space = polyspace.poly_space(args.n, args.d)
    model = _set_from_args(args)
    if args.schedule is None:
        p, given, schedule = args.p, {}, {}
    else:
        from . import bounds  # decimal arithmetic, loaded only for a schedule
        s, k, chat = _parse_schedule(args.schedule)
        p, c = bounds.power_schedule(args.d, k, chat, s)
        given, schedule = {"s": s, "k": k, "c_hat": chat}, {"schedule_c": c}
    cert = landau.embed(space, model, p)
    node_set = cert.node_set
    inputs = {"n": args.n, "d": args.d, "p": cert.p, **given, "set": model.describe(),
              "resolution": model.resolution}
    certificate = {
        "n": args.n, "d": args.d, "p": cert.p, **schedule,
        "nodes": node_set.nodes.tolist(), "certified_bound": cert.certified_bound,
        "grid_constant": node_set.grid_constant,
        **({"empirical_distortion": landau.estimate_distortion(cert)} if distort else {}),
        "grid_size": node_set.grid_size}
    anchors = ["power-embedding"]
    if distort:
        anchors.append("distortion-probe")
    if schedule:
        anchors.append("power-schedule")
    return _report(args, inputs, {"certificate": certificate}, anchors, node_set.grid_size)


def _cmd_entropy(args) -> dict:
    from . import bounds

    if args.n is not None:
        check_int(args.n, "number of variables")
    if args.schedule is not None:
        _, k, chat = _parse_schedule(args.schedule)
    elif args.n is not None:
        try:
            k, chat = args.n, math.exp(2 * args.n)
        except OverflowError:
            raise ValidationError(
                f"--n {args.n} puts the default growth constant exp(2n) above the "
                f"floating-point range; give --schedule s,k,chat instead") from None
    else:
        raise ValidationError("entropy needs --schedule s,k,chat or --n for defaults")
    if args.nbar is not None:
        nbar = args.nbar
    elif args.n is not None:
        nbar = dim_full(args.n, args.d)
    else:
        raise ValidationError("entropy needs --nbar or --n to size the blocks")
    values = bounds.entropy_chain(args.d, k, chat, nbar, args.eps).to_json_values()
    inputs = {"d": args.d, "k": k, "c_hat": chat, "nbar": nbar, "eps": args.eps}
    return _report(args, inputs, {"values": values}, (row[2] for row in values))


# each subcommand's handler and help text
_COMMANDS = {
    "dims": (_cmd_dims, "space dimension and grid trace rank"),
    "bounds": (_cmd_bounds, "closed-form mesh sizes and distortion constants"),
    "mesh": (_cmd_mesh, "select and certify a norming node set"),
    "embed": (_cmd_certificate, "build a sup-norm embedding certificate"),
    "distort": (_cmd_certificate, "embed plus the exact grid distortion: the largest "
                                  "grid-to-node sup ratio of any member"),
    "entropy": (_cmd_entropy, "metric entropy budget for an embedded family"),
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
    """The report as JSON or key,value CSV; every number outside the node
    lists is a CSV row, so an integer too long to print is refused by key."""
    rows: list[tuple[str, object]] = []
    _flatten(report, "", rows)
    lines = ["key,value"]
    for key, value in rows:
        try:
            text = "" if value is None else str(value)
        except ValueError:
            raise ValidationError(
                f"{key} has more than {sys.get_int_max_str_digits()} digits, "
                f"above Python's limit for printing an integer") from None
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{key},{text}")
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    payload = _render(report, args.format)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    elif sys.stdout is None:
        # fd 1 was closed when the process started
        raise OSError(errno.EBADF, "standard output is closed")
    else:
        sys.stdout.write(payload)


def _build_parser(command: str | None = None) -> _Parser:
    """One subparser per command, holding only the flags that command reads.

    Only ``command``'s subparser is built when it names a command; all six
    otherwise, for --help, no command or an unknown one.  A command's
    help, usage and errors read the same either way.
    """
    parser = _Parser(prog="normmesh", allow_abbrev=False,
                     description="Certified norming meshes and embedding bounds "
                                 "for polynomial spaces on compact sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {name: sub.add_parser(name, help=_COMMANDS[name][1],
                                 description=_COMMANDS[name][1], allow_abbrev=False)
            for name in ([command] if command in _COMMANDS else _COMMANDS)}

    def having(*names):
        return [cmds[name] for name in names if name in cmds]

    for cmd in having("dims", "bounds", "mesh", "embed", "distort"):
        cmd.add_argument("--n", type=int, required=True)
        cmd.add_argument("--d", type=int, required=True)
    for cmd in having("dims", "mesh", "embed", "distort"):
        cmd.add_argument("--set", choices=["box", "ball", "sphere", "cloud"],
                         default=None if cmd is cmds.get("dims") else "box")
        cmd.add_argument("--params", help="comma-separated reals for the set")
        cmd.add_argument("--cloud", help="path to a point cloud text file")
        cmd.add_argument("--resolution", type=int)
    for cmd in having("mesh", "embed", "distort"):
        cmd.add_argument("--seed", type=int, default=0,
                         help="checked and ignored: no command draws a random number")
    for cmd in having("embed", "distort"):
        power = cmd.add_mutually_exclusive_group(required=True)
        power.add_argument("--p", type=int)
        power.add_argument("--schedule", help="s,k,chat")
    for cmd in having("distort"):
        cmd.add_argument("--trials", type=int, default=32,
                         help="checked and ignored: the distortion is exact")
    for cmd in having("bounds"):
        cmd.add_argument("--schedule", help="s,k,chat")
    for cmd in having("entropy"):
        cmd.add_argument("--d", type=int, required=True)
        cmd.add_argument("--eps", type=float, required=True)
        cmd.add_argument("--n", type=int)
        cmd.add_argument("--schedule", help="s,k,chat")
        cmd.add_argument("--nbar", type=int)
    for cmd in cmds.values():
        cmd.add_argument("--out")
        cmd.add_argument("--format", choices=["json", "csv"], default="json")
        cmd.add_argument("--no-timestamp", action="store_true")
    return parser


def _run_command(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    if args.out is not None:
        check_out_path(args.out)
    # accepted and ignored: --seed by mesh, embed and distort, --trials by distort
    if "seed" in args:
        check_int(args.seed, "seed", minimum=0)
    if "trials" in args:
        check_int(args.trials, "trials")
    _emit(_COMMANDS[args.command][0](args), args)
    return 0


def main(argv=None) -> int:
    return exit_code_of(_run_command, argv)


def run(argv=None) -> NoReturn:
    """The process entry point: ``main``, then exit with its code, the
    output flushed and the interpreter's teardown skipped."""
    exit_process(main(argv))


if __name__ == "__main__":
    run()
