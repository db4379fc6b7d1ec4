"""Drive the full reference protocol through the CLI into ./artifacts.

Trains the per-pixel, Euclidean-baseline, and mask heads on the
reference scenes, emits label maps, uncertainty/confidence/boundary
maps, loss-landscape grids for both geometries, the 2-D gradient-field
CSV, and a delta-hyperbolicity report over the trained pixel embeddings.

    python scripts/run_reference_experiments.py [out_dir]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lorentzseg import segtoy as st  # noqa: E402
from lorentzseg.cli import load_model, main  # noqa: E402
from lorentzseg.fileio import write_embedding_csv  # noqa: E402
from lorentzseg.reference import REFERENCE_SCENE_BOUNDARY  # noqa: E402


def sh(argv):
    print("+ lorentzseg " + " ".join(argv))
    code = main(argv)
    if code != 0:
        raise SystemExit(f"command failed with exit code {code}")


def main_script():
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "artifacts")
    out.mkdir(parents=True, exist_ok=True)

    sh(["train", "--head", "pixel", "--out-dir", str(out / "pixel")])
    sh(["train", "--head", "euclid", "--out-dir", str(out / "euclid")])
    sh(["train", "--head", "mask", "--out-dir", str(out / "mask")])

    sh(["infer", "--model", str(out / "pixel" / "model"), "--mode", "distance",
        "--out-dir", str(out / "pixel_infer_distance")])
    sh(["infer", "--model", str(out / "pixel" / "model"), "--mode", "angle",
        "--out-dir", str(out / "pixel_infer_angle")])
    sh(["infer", "--model", str(out / "mask" / "model"),
        "--out-dir", str(out / "mask_infer")])

    # boundary-blended scene for the uncertainty maps
    b = REFERENCE_SCENE_BOUNDARY
    sh(["train", "--head", "pixel", "--noise", str(b.noise_sigma),
        "--edge-blend", str(b.edge_blend), "--out-dir", str(out / "pixel_boundary")])
    sh(["uncertainty", "--model", str(out / "pixel_boundary" / "model"),
        "--out-dir", str(out / "uncertainty")])
    sh(["uncertainty", "--model", str(out / "mask" / "model"),
        "--out-dir", str(out / "mask_uncertainty")])

    sh(["losscape", "--model", str(out / "pixel" / "model"),
        "--out", str(out / "losscape_hyperbolic.csv")])
    sh(["losscape", "--model", str(out / "euclid" / "model"),
        "--out", str(out / "losscape_euclidean.csv")])

    sh(["gradcheck", "--samples", "500", "--seed", "0", "--out", str(out / "gradcheck.json")])
    sh(["gradfield", "--resolution", "41", "--out", str(out / "gradfield.csv")])

    # delta-hyperbolicity of the trained pixel-encoder embeddings
    scene, res = load_model(out / "pixel" / "model")
    emb = st.encoder_forward(res.params, scene.features).reshape(-1, res.bank.d)
    write_embedding_csv(out / "pixel_embeddings.csv", emb)
    sh(["deltahyp", "--input", str(out / "pixel_embeddings.csv"),
        "--metric", "lorentz", "--batch-size", "512", "--batches", "8",
        "--seed", "0", "--out", str(out / "deltahyp.json")])

    print(f"\nartifacts in {out.resolve()}")


if __name__ == "__main__":
    main_script()
