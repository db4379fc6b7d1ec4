"""Command-line surface.

Subcommands: deltahyp, gradcheck, gradfield, train, infer, uncertainty,
losscape.  ``train --head`` takes pixel, euclid (the Euclidean ablation
baseline) or mask; every trained head is one ``segtoy.TrainResult``,
which ``load_model`` reads back with its scene for infer, uncertainty
and losscape.  The parsed flags describe each run: ``main`` writes the
subcommand's name as the manifest's ``command``, its flags minus the
output flag as its ``config``, and the manifest to ``<out>.manifest.json``
or ``<out-dir>/manifest.json``.  Each ``cmd_*`` returns its exit code and
what its flags cannot say: the seed, inputs and outputs; ``train`` also
returns its command, its resolved scene, training and head config (the
extras of ``model.json`` too) and, when it diverges, ``diverged_at_step``.
``main`` starts the clock, resets the clamp tally and adds the version,
wall clock and clamp events.  Re-running with the same flags reproduces
every output byte for byte (the manifest itself carries the wall clock).

Exit codes: 0 success, 1 failed numerical check or diverged training
run (a non-finite loss at any step, the post-training evaluation
included; the manifest records that step and no outputs) or a warning
that the caller's filter turned into an error (one stderr line, no
manifest), 2 usage error, 3 IO/parse error.  A bad flag, argparse's own
errors included, is a ``UsageError`` raised before any file is made,
which ``main`` prints as one line; the domain of a grid flag is what the
grid's rows can hold, and ``infer --mode angle`` needs the pixel head.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import grad as gr
from . import hyperbolicity as hyp
from . import maskhead as mh
from . import segtoy as st
from . import uncertainty as unc
from .errors import DomainError, ParseError, TrainingDivergedError, UsageError
from .fileio import (
    export_scalar_map,
    load_param_blocks,
    read_embedding_csv,
    save_param_blocks,
    write_json,
    write_pgm,
)
from .lorentz import clamp_events, lift_point, reset_clamp_events
from .reference import REFERENCE_MASK_HEAD, REFERENCE_MASK_TRAIN, REFERENCE_SCENE, REFERENCE_TRAIN

HEADS = ("pixel", "euclid", "mask")


# (flag, field): each flag of train sets one field of SceneConfig or
# TrainConfig and takes that field's reference value as its type and default
SCENE_FLAGS = (
    ("--parents", "parents"), ("--children", "children_per_parent"), ("--height", "height"),
    ("--width", "width"), ("--noise", "noise_sigma"), ("--edge-blend", "edge_blend"),
    ("--descriptor-dim", "descriptor_dim"), ("--scene-seed", "seed"),
)
TRAIN_FLAGS = (
    ("--epochs", "epochs"), ("--lr", "lr"), ("--lambda-w", "lambda_w"), ("--tau", "tau"),
    ("--cone-k", "K"), ("--seed", "seed"), ("--weight-decay", "weight_decay"),
    ("--hidden", "hidden"), ("--embed-dim", "embed_dim"),
)


def _from_flags(cls, flags, args, **given):
    """A ``cls`` whose fields are the values of their flags in ``args``,
    those ``given`` excepted."""
    return cls(**{field: getattr(args, flag[2:].replace("-", "_")) for flag, field in flags}
               | given)


def _write_csv(path, kind: str, columns, rows):
    """A ``# lorentzseg/<kind>/v1`` CSV: a Python int is written as one,
    every other value as repr(float(value))."""
    with open(path, "w") as fh:
        fh.write(f"# lorentzseg/{kind}/v1\n" + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if type(v) is int else repr(float(v)) for v in row) + "\n")


def _write_label_map(prefix, label_map: st.LabelMap):
    write_pgm(str(prefix) + ".pgm", label_map.values.astype(np.uint8))
    write_json(str(prefix) + ".legend.json", {str(k): v for k, v in label_map.legend.items()})


def load_model(prefix):
    """Load a trained head: returns (scene, res), the scene regenerated from
    the descriptor and a TrainResult with an empty trace, its bank and its
    prototypes rebuilt.  A descriptor that lacks a block or a key, has a
    setting its config does not, holds a value of the wrong kind or out of
    range, names an unknown head, or has blocks whose shapes do not fit the
    rebuilt bank, or a block with a non-finite entry, raises ParseError."""
    try:
        blocks, extras = load_param_blocks(prefix)
        head = extras["head"]
        if head not in HEADS:
            raise ParseError(f"{prefix}.json: unknown head {head!r}")
        scene_cfg = st.SceneConfig(**extras["scene"])
        train_cfg = st.TrainConfig(**extras["train"])
        scene, bank = _scene_and_bank(scene_cfg, train_cfg.embed_dim, extras.get("exclude_class"))
        # the training's block order, in which losscape draws its directions
        shapes = {"w1": (train_cfg.hidden, scene_cfg.descriptor_dim), "b1": (train_cfg.hidden,),
                  "w2": (bank.d, train_cfg.hidden), "b2": (bank.d,), "alpha": (1,)}
        head_cfg = None
        if head == "mask":
            head_cfg = mh.MaskHeadConfig(**extras["head_cfg"])
            queries = (head_cfg.n_queries, bank.d)
            shapes.update(class_tangents=queries, mask_tangents=queries, no_object_bias=(1,))
        params = {}
        for name, shape in shapes.items():
            block = params[name] = blocks[name]
            if block.shape != shape:
                raise ParseError(f"{prefix}.json: block {name} has shape "
                                 f"{block.shape}, expected {shape}")
            if not np.all(np.isfinite(block)):
                raise ParseError(f"{prefix}.bin: block {name} is not finite")
        protos = None if head == "euclid" else st.build_prototypes(bank, train_cfg.K)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"{prefix}.json: malformed model descriptor ({exc!r})") from exc
    return scene, st.TrainResult(head, params, protos, bank, {}, train_cfg, head_cfg)


def _scene_and_bank(scene_cfg, embed_dim, exclude_class):
    """A scene of at most 256 classes (its label maps are 8-bit) and the
    descriptor bank fit on it without ``exclude_class``, unless that is
    None; the bank refuses a class the scene does not have."""
    if scene_cfg.n_classes > 256:
        raise UsageError(f"{scene_cfg.n_classes} classes exceed the 256 of an 8-bit label map")
    scene = st.generate_scene(scene_cfg)
    exclude = () if exclude_class is None else (exclude_class,)
    return scene, st.DescriptorBank.fit(scene, d=embed_dim, exclude=exclude)


def cmd_deltahyp(args):
    points = read_embedding_csv(args.input)
    # overflowed distances end in DistanceMatrix's DomainError, not in warnings
    with np.errstate(over="ignore", invalid="ignore"):
        report = hyp.batched_delta_rel_from_points(
            points, batch_size=args.batch_size, batch_count=args.batches,
            seed=args.seed, metric=args.metric,
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, report.to_dict())
    print(f"delta_rel={report.delta_rel:.6f} over {report.batch_count} batches")
    return 0, {"seed": args.seed, "inputs": [args.input], "outputs": [out]}


def cmd_gradcheck(args):
    report = gr.gradient_interaction_report(args.samples, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, report.to_dict())
    ok = (report.max_rel_error <= 1e-5 and report.sign_agreement_rate == 1.0
          and report.euclid_orthogonality_violations == 0)
    print(
        f"max_rel_error={report.max_rel_error:.3e} "
        f"sign_agreement={report.sign_agreement_rate:.4f} "
        f"euclid_violations={report.euclid_orthogonality_violations} "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1, {"seed": args.seed, "inputs": [], "outputs": [out]}


def _gradfield_row(v, target):
    x = lift_point(np.asarray(v))
    y = lift_point(np.asarray(target))
    zeros = [0.0] * 15
    if np.allclose(v, target, atol=1e-12):
        return zeros + [0]
    try:
        gd = gr.grad_lorentz_distance(x, y)
        ga = gr.grad_exterior_angle(x, y)
    except (DomainError, UsageError):
        return zeros + [0]
    r = float(np.linalg.norm(v))
    # ltd, ltext: in x's origin-tangent coordinates u, with expm_O(u) = x
    u = v * (math.asinh(r) / r) if r > 0.0 else v
    jac = gr.exp_map_jacobian(u)[1:]  # spatial block
    gd_t = jac.T @ gd
    ga_t = jac.T @ ga
    cos_sp = float(np.dot(gd, ga) / max(np.linalg.norm(gd) * np.linalg.norm(ga), 1e-300))
    sign = gr.grad_sign_predictor(x, y)
    try:
        ed = gr.grad_euclidean_distance(np.asarray(v), np.asarray(target))
        ea = gr.grad_euclidean_exterior_angle(np.asarray(v), np.asarray(target))
        ecos = float(np.dot(ed, ea) / (np.linalg.norm(ed) * np.linalg.norm(ea)))
    except DomainError:
        ed = ea = np.zeros(2)
        ecos = 0.0
    return [
        float(gd[0]), float(gd[1]), float(np.linalg.norm(gd)),
        float(ga[0]), float(ga[1]), float(np.linalg.norm(ga)),
        float(gd_t[0]), float(gd_t[1]), float(np.linalg.norm(gd_t)),
        float(ga_t[0]), float(ga_t[1]), float(np.linalg.norm(ga_t)),
        cos_sp, ecos, float(np.linalg.norm(ed)), sign,
    ]


GRADFIELD_COLUMNS = (
    "v1,v2,"
    "ld_dx,ld_dy,ld_mag,lext_dx,lext_dy,lext_mag,"
    "ltd_dx,ltd_dy,ltd_mag,ltext_dx,ltext_dy,ltext_mag,"
    "cos_spatial,euclid_cos,euclid_d_mag,sign"
).split(",")


def cmd_gradfield(args):
    if args.resolution < 2:
        raise UsageError(f"--resolution must be >= 2, got {args.resolution}")
    target = np.array([float(t) for t in args.target.split(",")])
    if target.size != 2:
        raise UsageError("--target expects 'a,b'")
    try:
        lift_point(target)
    except (OverflowError, UsageError):
        raise UsageError(f"--target {args.target} is not finite or overflows the lift") from None
    # every row is computed before one is written: the extent's domain is what they hold
    try:
        with np.errstate(all="ignore"):
            coords = np.linspace(-args.grid_extent, args.grid_extent, args.resolution)
            rows = [[v1, v2, *_gradfield_row(np.array([v1, v2]), target)]
                    for v1 in coords for v2 in coords]
        held = np.isfinite(rows).all()
    except (OverflowError, UsageError):
        held = False
    if not held:
        raise UsageError(f"--grid-extent {args.grid_extent} puts grid points past what "
                         f"the gradient columns can hold")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, "gradfield", GRADFIELD_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0, {"seed": None, "inputs": [], "outputs": [out]}


def _predict(res: st.TrainResult, scene: st.SyntheticScene, mode: str):
    """The label map of a trained head on ``scene`` and its metrics: the
    mIoU, if the bank holds every class of the scene, and for the pixel
    head the share of pixels where the distance and angle predictions
    agree."""
    metrics = {}
    if res.head == "pixel":
        pred_d = st.infer_distance(res.params, res.protos, scene)
        pred_a = st.infer_angle(res.params, res.protos, scene)
        picked = pred_d if mode == "distance" else pred_a
        metrics["distance_angle_agreement"] = float((pred_d.values == pred_a.values).mean())
    elif res.head == "euclid":
        picked, mode = st.infer_euclidean(res.params, res.bank, scene), "euclid"
    else:
        picked, mode = mh.predict_semantic(res, scene), "semantic"
    if len(res.bank.included) == scene.n_classes:
        metrics[f"miou_{mode}"] = st.miou(picked, scene.labels, scene.n_classes)
    return picked, metrics


def cmd_train(args):
    scene_cfg = _from_flags(st.SceneConfig, SCENE_FLAGS, args)
    reference = REFERENCE_MASK_TRAIN if args.head == "mask" else REFERENCE_TRAIN
    train_cfg = _from_flags(st.TrainConfig, TRAIN_FLAGS, args,
                            lr=reference.lr if args.lr is None else args.lr)
    if args.head == "mask" and args.exclude_class is not None:
        # refused before the bank fit, whose rank-deficiency warning would
        # otherwise print ahead of the error
        raise UsageError(f"the mask head cannot hold out class {args.exclude_class}")
    scene, bank = _scene_and_bank(scene_cfg, train_cfg.embed_dim, args.exclude_class)
    out_dir = Path(args.out_dir)
    # the resolved run: the manifest's config and the extras of model.json
    config = {"scene": dataclasses.asdict(scene_cfg), "train": dataclasses.asdict(train_cfg),
              "head": args.head, "exclude_class": args.exclude_class}
    if args.head == "mask":
        head_cfg = mh.MaskHeadConfig(n_queries=args.n_queries)
        config["head_cfg"] = dataclasses.asdict(head_cfg)
    fields = {"command": f"train --head {args.head}", "config": config,
              "seed": train_cfg.seed, "inputs": [], "outputs": []}
    try:
        # a run that overflows ends in TrainingDivergedError; numpy's
        # floating-point warnings on the way there would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            if args.head == "mask":
                res = mh.train_maskhead(scene, bank, head_cfg, train_cfg)
            else:
                res = st.train(scene, bank, train_cfg, args.head)
    except TrainingDivergedError as exc:
        # exit 1 with one stderr line; as nothing was written yet, the
        # manifest records the failing step and no outputs
        print(f"training diverged: {exc}", file=sys.stderr)
        out_dir.mkdir(parents=True, exist_ok=True)
        return 1, {**fields, "diverged_at_step": exc.step}
    # made once the run ended: a setting the training refuses leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    save_param_blocks(out_dir / "model", res.params, config)
    _write_csv(out_dir / "trace.csv", "trace", res.trace, zip(*res.trace.values()))
    _, metrics = _predict(res, scene, "distance")
    metrics = {("train_" + k if k.startswith("miou_") else k): v for k, v in metrics.items()}
    metrics["final_loss"] = res.final_loss
    _write_label_map(out_dir / "gt", st.LabelMap(scene.labels, dict(enumerate(scene.class_names))))
    write_json(out_dir / "metrics.json", metrics)
    print(json.dumps(metrics, sort_keys=True))
    fields["outputs"] = [out_dir / "model.json", out_dir / "model.bin", out_dir / "trace.csv",
                         out_dir / "gt.pgm", out_dir / "gt.legend.json", out_dir / "metrics.json"]
    return 0, fields


def cmd_infer(args):
    scene, res = load_model(args.model)
    if args.mode == "angle" and res.head != "pixel":
        raise UsageError(f"--mode angle needs a pixel model, not a {res.head} model")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    picked, metrics = _predict(res, scene, args.mode)
    _write_label_map(out_dir / "pred", picked)
    write_json(out_dir / "metrics.json", metrics)
    print(json.dumps(metrics, sort_keys=True))
    outputs = [out_dir / "pred.pgm", out_dir / "pred.legend.json", out_dir / "metrics.json"]
    inputs = [args.model + ".json", args.model + ".bin"]
    return 0, {"seed": res.config.seed, "inputs": inputs, "outputs": outputs}


def cmd_uncertainty(args):
    if not 0.0 < args.percentile <= 100.0:
        raise UsageError(f"--percentile must lie in (0, 100], got {args.percentile}")
    scene, res = load_model(args.model)
    if not 0 <= args.class_id < scene.n_classes:
        raise UsageError(f"--class-id {args.class_id} is not a class of the scene")
    sp, t = st.embed_scene(res.params, scene)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ru = unc.radius_uncertainty(t)
    export_scalar_map(out_dir / "radius_uncertainty", ru)
    if res.head == "mask":
        au = mh.mask_angle_uncertainty(sp, t, res.params)
    else:
        # the euclid head is scored against the prototypes its bank would lift to
        protos = res.protos or st.build_prototypes(res.bank, res.config.K)
        au = unc.angle_uncertainty(sp, t, protos.spatial, protos.time)
    export_scalar_map(out_dir / "angle_uncertainty", au)
    bm = unc.boundary_map(au, args.percentile)
    export_scalar_map(out_dir / "boundary", bm, {"percentile": args.percentile})
    conf = unc.class_confidence(sp, t, scene.labels == args.class_id)
    export_scalar_map(out_dir / f"confidence_class{args.class_id}", conf,
                      {"class_id": args.class_id})
    print(f"wrote uncertainty maps to {out_dir}")
    stems = ("radius_uncertainty", "angle_uncertainty", "boundary", f"confidence_class{args.class_id}")
    outputs = [out_dir / f"{stem}.{ext}" for stem in stems for ext in ("pgm", "csv", "json")]
    inputs = [args.model + ".json", args.model + ".bin"]
    return 0, {"seed": res.config.seed, "inputs": inputs, "outputs": outputs}


def cmd_losscape(args):
    if args.grid < 1 or args.grid % 2 == 0:
        raise UsageError(f"--grid must be odd and positive, got {args.grid}")
    if not (math.isfinite(args.extent) and args.extent > 0):
        raise UsageError(f"--extent must be finite and positive, got {args.extent}")
    scene, res = load_model(args.model)
    if res.head == "mask":
        raise UsageError("loss landscape supports the pixel and euclid heads")
    objective = st.PixelObjective.build(scene, res.bank, res.config, res.head)

    rng = np.random.default_rng(args.directions_seed)
    base = res.params
    dirs = []
    for _ in range(2):
        d = {}
        for name, block in base.items():
            raw = rng.normal(size=block.shape)
            bnorm = float(np.linalg.norm(block))
            rnorm = float(np.linalg.norm(raw))
            # filter normalization: each direction block rescaled to the
            # norm of the matching parameter block
            d[name] = raw * (bnorm / rnorm) if rnorm > 0 and bnorm > 0 else raw * 0.0
        dirs.append(d)

    # every cell is computed before one is written: the extent's domain is what they hold
    with np.errstate(all="ignore"):
        coords = np.linspace(-args.extent, args.extent, args.grid)
        coords[args.grid // 2] = 0.0  # the trained model itself, wherever linspace rounds
        rows = []
        for a in coords:
            for b in coords:
                if a == 0.0 and b == 0.0:
                    probe = base
                else:
                    probe = {name: block + a * dirs[0][name] + b * dirs[1][name]
                             for name, block in base.items()}
                rows.append((a, b, st.evaluate_loss(probe, objective)))
    if not np.isfinite(rows).all():
        raise UsageError(f"--extent {args.extent} perturbs the model past what its loss can hold")
    center_loss = rows[len(rows) // 2][2]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, "losscape", ("alpha", "beta", "loss"), rows)
    print(f"center_loss={center_loss!r}")
    inputs = [args.model + ".json", args.model + ".bin"]
    return 0, {"seed": args.directions_seed, "inputs": inputs, "outputs": [out]}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are usage errors, so that ``main``
    prints them as one line; its subparsers share the class."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lorentzseg")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deltahyp", help="batched Gromov delta-hyperbolicity of an embedding CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--metric", choices=hyp.METRICS, default="euclidean")
    p.add_argument("--batch-size", type=int, default=1024)
    p.add_argument("--batches", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_deltahyp)

    p = sub.add_parser("gradcheck", help="analytic-vs-FD gradient verification report")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gradfield", help="2-D gradient field CSV around a target embedding")
    p.add_argument("--grid-extent", type=float, default=1.5)
    p.add_argument("--resolution", type=int, default=41)
    p.add_argument("--target", default="0.8,0.4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gradfield)

    p = sub.add_parser("train", help="train a head on a synthetic scene")
    p.add_argument("--head", choices=HEADS, default="pixel")
    for flags, reference in ((SCENE_FLAGS, REFERENCE_SCENE), (TRAIN_FLAGS, REFERENCE_TRAIN)):
        for flag, field in flags:
            value = getattr(reference, field)
            if field == "lr":  # the one per-head default, which cmd_train resolves
                p.add_argument(flag, type=float, default=None, help=(
                    f"default {value} (pixel, euclid) or {REFERENCE_MASK_TRAIN.lr} (mask)"))
            else:
                p.add_argument(flag, type=type(value), default=value)
    p.add_argument("--exclude-class", type=int, default=None)
    p.add_argument("--queries", type=int, dest="n_queries",
                   default=REFERENCE_MASK_HEAD.n_queries)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="label maps from a trained model")
    p.add_argument("--model", required=True, help="model path prefix (no extension)")
    p.add_argument("--mode", choices=("distance", "angle"), default="distance")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("uncertainty", help="uncertainty/confidence/boundary maps")
    p.add_argument("--model", required=True)
    p.add_argument("--percentile", type=float, default=90.0)
    p.add_argument("--class-id", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("losscape", help="filter-normalized loss surface grid")
    p.add_argument("--model", required=True)
    p.add_argument("--directions-seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=41)
    p.add_argument("--extent", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_losscape)

    return parser


def _print_warning(message, *_):
    """``warnings.showwarning`` that prints one stderr line, without the
    source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    started = time.time()
    reset_clamp_events()
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            args = build_parser().parse_args(argv)
            code, fields = args.func(args)
            config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
            if "out" in config:
                path = Path(f"{Path(config.pop('out'))}.manifest.json")
            else:
                path = Path(config.pop("out_dir")) / "manifest.json"
            write_json(path, {
                "command": args.command,
                "config": config,
                **fields,
                "outputs": [str(p) for p in fields["outputs"]],
                "tool_version": __version__,
                "wall_clock_s": time.time() - started,
                "clamp_events": clamp_events(),
            })
            return code
        except SystemExit:  # --help and --version
            return 0
        except (UsageError, ValueError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except (ParseError, OSError) as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return 3
        except Warning as exc:  # the caller's warning filter made it an error
            print(f"warning raised as error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
