"""Regenerate reference.json and the stored α = 30 numeric column.

Run from the root of a checkout of the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs the fixed fig2, device_si and fig4 α = 30 scenarios through
lcdeco and records the digests and the numeric column the benchmark
compares against.  The α = 30 run takes about 12 s and 0.8 GB.
"""

import json
import os
import shutil
import tempfile

import numpy as np

from lcdeco.config import parse_config
from lcdeco.runner import run_scenario

from verify import csv_body, csv_columns, sha256_bytes
from workloads import HERE, fig4_text, pinned_config

TOLERANCES = {
    # gate 2 of the acceptance suite holds the Gaussian oracle to this
    "D_gaussian_abs": 1e-8,
    # far below the 1e-6 Fock-vs-closed-form gate, far above round-off
    "D_fock_abs": 1e-8,
    # of max|I_numeric|; a different eigensolver moves only last digits
    "I_numeric_rel": 1e-7,
}


def run(text, out):
    run_scenario(parse_config(text), out_dir=out, config_text=text)
    return out


def main():
    work = tempfile.mkdtemp(dir=os.getcwd())
    try:
        fig2 = run(pinned_config("fig2"), os.path.join(work, "fig2"))
        dev = run(pinned_config("device_si"), os.path.join(work, "dev"))
        fig4 = run(fig4_text(30.0, 1200, 4096), os.path.join(work, "fig4"))
        with open(os.path.join(fig2, "fig2_overlay.svg"), "rb") as fh:
            svg_sha = sha256_bytes(fh.read())
        with open(os.path.join(dev, "derive_report.txt"), "rb") as fh:
            report_sha = sha256_bytes(fh.read())
        derived_sha = sha256_bytes(
            csv_body(os.path.join(dev, "derived.csv")).encode("utf-8"))
        i_numeric = np.array(
            [float(v) for v in
             csv_columns(os.path.join(fig4, "fig4.csv"))["I_numeric"]])
    finally:
        shutil.rmtree(work)
    np.savez_compressed(os.path.join(HERE, "fig4_alpha30.npz"),
                        I_numeric=i_numeric)
    reference = {
        "tolerances": TOLERANCES,
        "fig2_svg_sha256": svg_sha,
        "derive": {"report": report_sha, "derived_csv_body": derived_sha},
        "stored_numeric": {
            "fig4 alpha=30 dim=1200 samples=4096": {
                "file": "fig4_alpha30.npz", "array": "I_numeric"}},
    }
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
