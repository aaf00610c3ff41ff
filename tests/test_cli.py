import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import threshnet
import threshnet.cli
import threshnet.growth
from threshnet import ParetoParams, expected_arcs_directed, expected_edges, io as tio, p_edge, variance_edges
from threshnet.cli import MAX_ANALYZE_NODES, main
from threshnet.errors import SeriesFormatError

from oracles import read_json, read_nodes_tsv, sample_discrete_powerlaw


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _child_env() -> dict:
    """This process's environment, for a fresh interpreter that imports threshnet from this checkout."""
    src = str(Path(threshnet.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_generate_writes_artifacts(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "generate", "--n", "1000", "--a", "3", "--w0", "1", "--theta", "10",
        "--seed", "7", "--out-dir", str(tmp_path / "run1"),
    )
    assert code == 0
    manifest = read_json(tmp_path / "run1" / "manifest.json")
    assert manifest["config"]["n"] == 1000
    assert manifest["config"]["theta"] == 10.0
    weights, dirs = read_nodes_tsv(tmp_path / "run1" / "nodes.tsv")
    assert len(weights) == 1000
    assert dirs.shape == (1000, 3)
    edges = tio.read_edges_tsv(tmp_path / "run1" / "edges.tsv")
    assert manifest["n_edges"] == len(edges)

    # rerun reproduces identical digests
    code, _, _ = run(
        capsys,
        "generate", "--n", "1000", "--a", "3", "--w0", "1", "--theta", "10",
        "--seed", "7", "--out-dir", str(tmp_path / "run2"),
    )
    assert code == 0
    manifest2 = read_json(tmp_path / "run2" / "manifest.json")
    assert manifest["outputs"] == manifest2["outputs"]


def test_generate_edge_count_in_band(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "generate", "--n", "30000", "--a", "3", "--w0", "1",
        "--schedule", "powerlaw", "--D", "1", "--seed", "2",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    manifest = read_json(tmp_path / "manifest.json")
    pareto = ParetoParams(3, 1)
    theta = manifest["config"]["theta"]
    em = expected_edges(30000, pareto, theta)
    assert abs(manifest["n_edges"] - em) <= 3 * np.sqrt(variance_edges(30000, pareto, theta))


def test_generate_infeasible_target_exits_one(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "generate", "--n", "1000", "--a", "3", "--target-edges", "300000",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "infeasible" in err


def test_generate_usage_error_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "abc", "--a", "3", "--theta", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_generate_requires_one_theta_source(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "generate", "--n", "100", "--a", "3", "--theta", "1", "--target-edges", "5",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "exactly one" in err


def test_oracle_values(capsys):
    code, out, _ = run(capsys, "oracle", "pe", "--a", "3", "--w0", "1", "--theta", "0")
    assert code == 0
    assert float(out.splitlines()[0]) == 0.5

    code, out, _ = run(capsys, "oracle", "pe", "--a", "3", "--w0", "1", "--theta", "10")
    assert float(out.splitlines()[0]) == pytest.approx(1.08222e-3, rel=1e-5)
    payload = json.loads(out.splitlines()[1])
    assert payload["kind"] == "pe"

    code, out, _ = run(capsys, "oracle", "var", "--a", "3", "--w0", "1", "--theta", "0", "--n", "3")
    assert float(out.splitlines()[0]) == 0.75


@pytest.mark.parametrize(
    "argv, top",
    [
        (["pew-directed", "--a", "3", "--theta", "1e300", "--w", "2", "--alpha", "1", "--beta", "0.5"], 0.5),
        (["pwedge", "--a", "10", "--theta", "1e40"], 0.25),
        (["var", "--a", "10", "--n", "100", "--theta", "1e40"], (100 * 99 / 2) ** 2 / 4),  # Popoviciu
    ],
    ids=["pew-directed", "pwedge", "var"],
)
def test_oracle_past_float_powers_of_theta_prints_a_value(capsys, argv, top):
    # theta ** (a / beta) and theta ** (2 * a) overflow a float at these thresholds
    code, out, _ = run(capsys, "oracle", *argv)
    assert code == 0
    assert 0.0 <= float(out.splitlines()[0]) <= top


@pytest.mark.parametrize(
    "argv, top",
    [
        (["pew-directed", "--a", "3", "--theta", "1", "--w", "1e200", "--alpha", "2", "--beta", "1"], 0.5),
        (["pwedge", "--a", "3", "--w0", "1e200", "--theta", "1"], 0.25),
        (["var", "--a", "3", "--w0", "1e200", "--n", "100", "--theta", "1"], (100 * 99 / 2) ** 2 / 4),
        (["em-linlog", "--a", "3", "--w0", "1e200", "--n", "100", "--D", "1"], None),  # n below w0^(2a)/D^a
    ],
    ids=["pew-directed", "pwedge", "var", "em-linlog"],
)
def test_oracle_past_float_powers_of_w_or_w0_prints_a_value_or_error(capsys, argv, top):
    # w ** alpha, w0 ** 2 and w0 ** (2 * a) overflow a float here
    code, out, err = run(capsys, "oracle", *argv)
    if top is None:
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err
    else:
        assert code == 0
        assert 0.0 <= float(out.splitlines()[0]) <= top


def test_oracle_domain_error_exits_one(capsys):
    code, _, err = run(capsys, "oracle", "pe", "--a", "3", "--w0", "1", "--theta", "-1")
    assert code == 1
    assert "non-negative" in err


def test_calibrate_round_trip_with_oracle(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "calibrate", "--n", "100", "--a", "3", "--w0", "1", "--target-edges", "1237.5",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    theta = float(out.splitlines()[0])
    assert theta == pytest.approx(8.0 / 9.0, rel=1e-10)
    saved = read_json(tmp_path / "calibration.json")
    assert saved["theta"] == theta

    code, out, _ = run(
        capsys, "oracle", "em", "--a", "3", "--w0", "1", "--theta", str(theta), "--n", "100"
    )
    assert float(out.splitlines()[0]) == pytest.approx(1237.5, rel=1e-9)


_DIRECTED = ["--n", "2000", "--a", "3", "--variant", "directed", "--alpha", "1", "--beta", "2"]


def test_calibrate_and_generate_directed_hit_the_target(capsys, tmp_path):
    target = 20000.0
    code, out, _ = run(capsys, "calibrate", *_DIRECTED, "--target-edges", repr(target))
    assert code == 0
    theta = float(out.splitlines()[0])
    payload = json.loads(out.splitlines()[1])
    assert payload["variant"] == "directed" and payload["theta"] == theta
    assert payload["expected_edges"] == pytest.approx(target, rel=1e-10, abs=0.0)
    assert expected_arcs_directed(2000, ParetoParams(3, 1), theta, 1.0, 2.0) == payload["expected_edges"]

    code, _, _ = run(capsys, "generate", *_DIRECTED, "--target-edges", repr(target), "--seed", "2",
                     "--out-dir", str(tmp_path))
    assert code == 0
    config = read_json(tmp_path / "manifest.json")["config"]
    assert config["theta"] == theta
    assert (config["variant"], config["alpha"], config["beta"]) == ("directed", 1.0, 2.0)


def test_generate_linkfn_refuses_target_edges(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "--n", "100", "--a", "3", "--variant", "linkfn", "--alpha", "1",
                       "--beta", "1", "--h", "exp", "--target-edges", "50", "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert err == "error: no calibration closed form for link-function rules\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("h", ["exp", "oddpow:1:-0.2", "evenpow:2", "identity"])
def test_generate_linkfn_manifest_names_the_link(capsys, tmp_path, h):
    code, _, _ = run(capsys, "generate", "--n", "200", "--a", "3", "--variant", "linkfn", "--alpha", "1",
                     "--beta", "2", "--h", h, "--theta", "2", "--out-dir", str(tmp_path))
    assert code == 0
    config = read_json(tmp_path / "manifest.json")["config"]
    assert (config["variant"], config["h"], config["alpha"], config["beta"]) == ("linkfn", h, 1.0, 2.0)


def test_generate_manifest_link_reruns_to_the_same_digest(capsys, tmp_path):
    # the manifest records c in full, so a rerun from its h is the graph that ran
    argv = ["generate", "--n", "2000", "--a", "3", "--variant", "linkfn", "--alpha", "1", "--beta", "1",
            "--theta", "2", "--seed", "1"]
    assert run(capsys, *argv, "--h", "oddpow:1:-0.20000049", "--out-dir", str(tmp_path / "a"))[0] == 0
    manifest = read_json(tmp_path / "a" / "manifest.json")
    assert manifest["config"]["h"] == "oddpow:1:-0.20000049"
    assert run(capsys, *argv, "--h", manifest["config"]["h"], "--out-dir", str(tmp_path / "b"))[0] == 0
    assert read_json(tmp_path / "b" / "manifest.json")["outputs"] == manifest["outputs"]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "100", "--a", "3", "--schedule", "powerlaw"],
        ["growth", "sweep", "--schedule", "powerlaw", "--a", "3", "--ns", "100,200"],
    ],
    ids=["generate", "sweep"],
)
def test_powerlaw_schedule_without_D_exits_one(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == "error: --schedule powerlaw requires --D\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags",
    [["--n", str(2 ** 50)], ["--n", str(10 ** 20)], ["--n", "10", "--d", str(10 ** 20)]],
    ids=["8-PiB", "n-beyond-int64", "d-beyond-int64"],
)
def test_generate_node_table_that_cannot_be_allocated_exits_one(capsys, tmp_path, flags):
    # refused at allocation: 8 PiB exceeds any address space, and the others any array shape
    code, _, err = run(capsys, "generate", "--a", "3", "--theta", "1", *flags, "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error: node table of ") and "does not fit" in err
    assert not any(tmp_path.iterdir())


def test_calibrate_infeasible_exits_one(capsys):
    code, _, err = run(capsys, "calibrate", "--n", "10", "--a", "3", "--target-edges", "1000")
    assert code == 1
    assert "infeasible" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--n", "1000", "--a", "0.01", "--target-edges", "1e-300"],
        ["calibrate", "--n", "1000", "--a", "3", "--variant", "directed", "--alpha", "2", "--beta", "100000",
         "--target-edges", "1"],
        ["generate", "--n", "1000", "--a", "3", "--variant", "directed", "--alpha", "2", "--beta", "100000",
         "--target-edges", "1"],
        ["calibrate", "--n", "1000", "--a", "0.05", "--variant", "directed", "--alpha", "1", "--beta", "1",
         "--target-edges", "1e-200"],
        ["calibrate", "--n", "1000", "--a", "3", "--w0", "2", "--variant", "directed", "--alpha", "2000",
         "--beta", "1", "--target-edges", "10"],
    ],
    ids=["tiny-target", "directed-large-beta", "generate-directed-large-beta", "directed-tiny-target",
         "directed-w0-power-beyond-floats"],
)
def test_calibration_without_finite_bracket_exits_one(tmp_path, capsys, argv):
    # the threshold bracket doubles up to the largest double, then gives up
    code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ")
    assert not any(tmp_path.iterdir())


# sha256 of the nodes.tsv and edges.tsv that `generate --n 100000 --a 3 --theta 20
# --seed 1` writes, by --d: the bytes are part of the output contract.
PINNED_OUTPUTS = {
    2: ("9a7967712a377e6640d1691b8d6736de37aef089161491c44e44a01c8b1af5c5",
        "cbcde51fbc1aecacf9189c164e1bc4fad2aa8026ad1b714f6b75482fae7e5f85"),
    3: ("c597dec60c14df7fda3a3cf1701aea825a4b4a76983425a6e7c8109fe9eef4f1",
        "ec4f3dc5adbe20b3584af5d841f5e56e6de940fa5debe51759d0aa213c0a077d"),
    5: ("aaed1be981af38207d7c9186a5324c92b692bdb29291cbeb71717c590571bf54",
        "c355be54fce808b03dd372fd30f30f58a02e74e036259b42479020eba70c1d0f"),
}


@pytest.mark.parametrize("d", sorted(PINNED_OUTPUTS))
def test_generate_output_bytes_are_pinned(tmp_path, capsys, d):
    code, _, _ = run(capsys, "generate", "--n", "100000", "--a", "3", "--theta", "20", "--d", str(d),
                     "--seed", "1", "--out-dir", str(tmp_path))
    assert code == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("nodes.tsv", "edges.tsv"))
    assert digests == PINNED_OUTPUTS[d]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_generate_directed_edge_file_is_pinned(tmp_path, capsys, threads):
    # 202,746 arcs whose ids take 1 to 5 digits in both columns, here and in a
    # fresh interpreter whose OpenBLAS runs `threads` threads
    argv = ["generate", "--n", "20000", "--a", "3", "--theta", "60", "--variant", "directed",
            "--alpha", "0.5", "--beta", "2", "--seed", "2", "--out-dir"]
    code, _, _ = run(capsys, *argv, str(tmp_path / "here"))
    assert code == 0
    env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads)
    subprocess.run([sys.executable, "-m", "threshnet.cli", *argv, str(tmp_path / "child")], env=env,
                   capture_output=True, check=True)
    for where in ("here", "child"):
        digest = hashlib.sha256((tmp_path / where / "edges.tsv").read_bytes()).hexdigest()
        assert digest == "3df0e871573e0ef467bc6af80fc1dd911f0d5fa85f361150e54ee8e8e8cedb4b"


def test_generate_past_max_edges_exits_one(tmp_path, capsys):
    # theta = 0 links half of the 124750 pairs; the guard stops the run before any file is written
    code, _, err = run(capsys, "generate", "--n", "500", "--a", "3", "--theta", "0", "--max-edges", "100",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error: ") and "exceeds guard 100; raise --max-edges" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n", ["1", "2000"])
def test_generate_with_negative_max_edges_exits_one(tmp_path, capsys, n):
    # at n = 1 no guard could fire while deciding: the refusal comes first
    code, out, err = run(capsys, "generate", "--n", n, "--a", "3", "--theta", "3", "--max-edges", "-1",
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", "error: edge guard must be non-negative, got max_edges=-1\n")
    assert not any(tmp_path.iterdir())


_LINKFN = ["generate", "--n", "10", "--a", "3", "--variant", "linkfn", "--alpha", "1", "--beta", "1", "--theta", "1"]
_SWEEP = ["growth", "sweep", "--schedule", "powerlaw", "--D", "1", "--a", "3", "--ns", "100,200"]


@pytest.mark.parametrize(
    "argv, want",
    [
        (_LINKFN + ["--h", "oddpow:x:1"], 1),
        (_LINKFN + ["--h", "oddpow:1:y"], 1),
        (["oracle", "pew-linkfn", "--a", "3", "--theta", "1", "--w", "2", "--alpha", "1", "--beta", "1",
          "--h", "evenpow:z"], 1),
        (_LINKFN + ["--h", "oddpow:1:nan"], 1),
        (_LINKFN + ["--h", "oddpow:1:inf"], 1),
        (_LINKFN + ["--h", "exp:1"], 1),
        (["oracle", "pew-linkfn", "--a", "3", "--theta", "1", "--w", "2", "--alpha", "1", "--beta", "1",
          "--h", "oddpow:1:nan"], 1),
        (["growth", "sweep", "--schedule", "powerlaw", "--D", "1", "--a", "3", "--ns", "100,x"], 2),
        (["oracle", "pe", "--a", "3"], 1),
        (["oracle", "var", "--a", "3", "--n", "10"], 1),
        (["oracle", "pew", "--a", "3", "--theta", "1"], 1),
        (["oracle", "em-linlog", "--a", "3", "--D", "1"], 1),
        (["oracle", "pew-directed", "--a", "3", "--theta", "1", "--w", "2"], 1),
        (["oracle", "pew-directed", "--a", "3", "--theta", "1", "--w", "2", "--alpha", "1"], 1),
        (["generate", "--n", "1000", "--a", "3", "--variant", "directed", "--target-edges", "10"], 1),
        (["calibrate", "--n", "1000", "--a", "3", "--variant", "directed", "--target-edges", "10"], 1),
        (_SWEEP + ["--seeds", "0"], 1),
        (_SWEEP + ["--seeds", "-1"], 1),
        (["generate", "--n", "100", "--a", "3", "--theta", "1", "--alpha", "2", "--h", "exp"], 1),
        (["generate", "--n", "100", "--a", "3", "--theta", "1", "--variant", "directed", "--alpha", "2",
          "--beta", "1", "--h", "exp"], 1),
        (["calibrate", "--n", "-3", "--a", "3", "--target-edges", "5"], 1),
        (["calibrate", "--n", "0", "--a", "3", "--variant", "directed", "--alpha", "0.5", "--beta", "2",
          "--target-edges", "5"], 1),
        (["generate", "--n", "0", "--a", "3", "--target-edges", "5"], 1),
    ],
    ids=[
        "h-bad-m", "h-bad-c", "oracle-h-bad-m", "h-nan-c", "h-inf-c", "h-extra-field", "oracle-h-nan-c",
        "ns-not-integer", "pe-no-theta", "var-no-theta", "pew-no-w",
        "em-linlog-no-n", "pew-directed-no-alpha-beta", "pew-directed-no-beta",
        "generate-directed-target-no-alpha-beta", "calibrate-directed-no-alpha-beta", "sweep-zero-seeds",
        "sweep-negative-seeds", "undirected-alpha-and-h", "directed-h",
        "calibrate-negative-n", "calibrate-directed-zero-n", "generate-target-zero-n",
    ],
)
def test_bad_value_gives_error_line(tmp_path, capsys, monkeypatch, argv, want):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == want
    assert err.startswith("error: ") if want == 1 else "error: argument" in err
    n = argv[argv.index("--n") + 1] if "--n" in argv else None
    if n is not None and int(n) < 1:  # refused as a node count, not as a target or threshold
        assert err == f"error: node count must be >= 1, got {n}\n"
    assert not any(tmp_path.iterdir())


def test_analyze_degree_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    degrees = sample_discrete_powerlaw(rng, 2.5, 1, 20000)
    deg_path = tmp_path / "degrees.txt"
    deg_path.write_text("\n".join(str(int(d)) for d in degrees), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "analyze", "--degrees", str(deg_path), "--x-min", "1",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    fit = read_json(tmp_path / "fit.json")
    assert abs(fit["alpha_hat"] - 2.5) < 0.06
    ccdf_lines = (tmp_path / "ccdf.csv").read_text(encoding="utf-8").splitlines()
    assert ccdf_lines[0] == "k,ccdf"


def test_analyze_directed_split(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "generate", "--n", "20000", "--a", "3", "--w0", "1", "--theta", "30",
        "--variant", "directed", "--alpha", "1", "--beta", "2",
        "--seed", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "analyze", "--edges", str(tmp_path / "edges.tsv"), "--n", "20000",
        "--directed", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "fit_out.json").exists()
    assert (tmp_path / "fit_in.json").exists()
    assert (tmp_path / "ccdf_out.csv").exists()


def test_analyze_empty_edges_exits_one(tmp_path, capsys):
    bad = tmp_path / "edges.tsv"
    bad.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--edges", str(bad), "--out-dir", str(tmp_path))
    assert code == 1
    assert "empty" in err


def test_analyze_negative_id_exits_one(tmp_path, capsys):
    bad = tmp_path / "edges.tsv"
    bad.write_text("0\t1\n-3\t2\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--edges", str(bad), "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ")
    assert str(bad) in err and "id -3 " in err


def test_analyze_id_beyond_n_exits_one(tmp_path, capsys):
    bad = tmp_path / "edges.tsv"
    bad.write_text("0\t1\n2\t7\n", encoding="utf-8")
    code, _, err = run(
        capsys, "analyze", "--edges", str(bad), "--n", "5", "--directed", "--out-dir", str(tmp_path)
    )
    assert code == 1
    assert err.startswith("error: ")
    assert str(bad) in err and "id 7 " in err
    assert not (tmp_path / "fit_out.json").exists()


def test_analyze_id_beyond_int64_exits_one(tmp_path, capsys):
    bad = tmp_path / "edges.tsv"
    bad.write_text("0\t1\n99999999999999999999\t2\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--edges", str(bad), "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ")
    assert f"{bad}:2" in err and "99999999999999999999" in err


def test_analyze_degree_beyond_int64_exits_one(tmp_path, capsys):
    bad = tmp_path / "deg.txt"
    bad.write_text("3\n99999999999999999999999\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--degrees", str(bad), "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ")
    assert f"{bad}:2" in err and "99999999999999999999999" in err


def test_analyze_degrees_float64_cannot_hold_exits_one(tmp_path, capsys):
    deg = tmp_path / "deg.txt"
    deg.write_text("".join(f"{2 ** 60 + k}\n" for k in (0, 1, 2) for _ in range(30)), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--degrees", str(deg), "--bootstrap", "100", "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and "2^53" in err
    assert not (tmp_path / "fit.json").exists()


def test_analyze_negative_degree_exits_one_before_fitting(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "deg.txt"
    bad.write_text("3\n-3\n5\n", encoding="utf-8")
    fits = []
    monkeypatch.setattr(threshnet.statfit, "fit_powerlaw_discrete", lambda *a, **k: fits.append(a))
    code, _, err = run(capsys, "analyze", "--degrees", str(bad), "--bootstrap", "100", "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ")
    assert f"{bad}:2: degree -3 is negative" in err
    assert fits == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1", "--bootstrap", "100"], "--seed must be in [0, 2^64), got -1"),
        (["--seed", str(2 ** 64), "--bootstrap", "100"], f"--seed must be in [0, 2^64), got {2 ** 64}"),
        (["--bootstrap", "50"], "--bootstrap must be 0 or at least 100, got 50"),
        (["--bootstrap", "-100"], "--bootstrap must be 0 or at least 100, got -100"),
    ],
    ids=["seed-negative", "seed-2^64", "bootstrap-50", "bootstrap-negative"],
)
def test_analyze_bad_seed_or_bootstrap_exits_one_before_reading(tmp_path, capsys, monkeypatch, flags, message):
    degrees = tmp_path / "deg.txt"
    degrees.write_text("\n".join(["3", "5", "8"] * 40) + "\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(threshnet.io, "read_degree_file", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(threshnet.statfit, "fit_powerlaw_discrete", lambda *a, **k: calls.append(a))
    code, _, err = run(capsys, "analyze", "--degrees", str(degrees), *flags, "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert calls == []


@pytest.mark.parametrize("n", ["0", "-2"])
def test_analyze_rejects_n_below_one(tmp_path, capsys, n):
    edges = tmp_path / "edges.tsv"
    edges.write_text("0\t1\n1\t2\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--edges", str(edges), "--n", n, "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and f"--n must be at least 1, got {n}" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("n", [10 ** 12, MAX_ANALYZE_NODES + 1])
def test_analyze_rejects_n_beyond_limit(tmp_path, capsys, n):
    edges = tmp_path / "edges.tsv"
    edges.write_text("0\t1\n1\t2\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--edges", str(edges), "--n", str(n), "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and f"--n {n} exceeds the analyze limit of {MAX_ANALYZE_NODES}" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("flag, data", [("--edges", b"0\t1\n\xff\t2\n"), ("--degrees", b"3\n\xff\n")])
def test_analyze_non_utf8_input_exits_one(tmp_path, capsys, flag, data):
    bad = tmp_path / "input.txt"
    bad.write_bytes(data)
    code, _, err = run(capsys, "analyze", flag, str(bad), "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and f"{bad}: not UTF-8 text" in err


@pytest.mark.parametrize("node", [10 ** 12, 2 ** 62])
def test_analyze_sparse_inferred_id_exits_one(tmp_path, node):
    edges = tmp_path / "edges.tsv"
    edges.write_text(f"0\t{node}\n", encoding="utf-8")
    env = _child_env()
    # 4 GiB of address space: past the cap, the 8 TB degree count would fail to allocate on any host
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 32, 1 << 32)); "
        "from threshnet.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = ["analyze", "--edges", str(edges), "--out-dir", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    want = f"{edges}: node count {node + 1} (largest id + 1) exceeds the analyze limit of {MAX_ANALYZE_NODES}"
    assert out.stderr == f"error: {want}\n"


def test_analyze_inferred_node_count_beyond_limit_exits_one_before_counting(tmp_path, capsys, monkeypatch):
    # the cap that --n meets holds for the largest id + 1 as well, before any degree is counted
    edges = tmp_path / "edges.tsv"
    edges.write_text(f"0\t{10 ** 8}\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(threshnet.cli, "degree_sequence", lambda *a: calls.append(a))
    code, _, err = run(capsys, "analyze", "--edges", str(edges), "--out-dir", str(tmp_path))
    assert code == 1
    assert err == f"error: {edges}: node count {10 ** 8 + 1} (largest id + 1) exceeds the analyze limit of {MAX_ANALYZE_NODES}\n"
    assert calls == []
    assert not (tmp_path / "fit.json").exists()


def test_analyze_degree_counts_that_do_not_fit_exit_one(tmp_path, capsys, monkeypatch):
    edges = tmp_path / "edges.tsv"
    edges.write_text("0\t1\n1\t2\n", encoding="utf-8")

    def no_memory(*args):
        raise MemoryError("Unable to allocate 24 B")

    monkeypatch.setattr(threshnet.cli, "degree_sequence", no_memory)
    code, _, err = run(capsys, "analyze", "--edges", str(edges), "--out-dir", str(tmp_path))
    assert code == 1
    assert err == f"error: {edges}: degree counts of 3 nodes do not fit (Unable to allocate 24 B)\n"


# 59 sources with out-degrees from 1 to 25, each arc into a node of its own: the
# out-degree fit succeeds and the in-degrees, all 1, cannot be fitted
_OUT_DEGREES = [1] * 30 + [2] * 12 + [3] * 6 + [4] * 4 + [6] * 3 + [9] * 2 + [15, 25]
_ONE_ARC_PER_TARGET = "".join(
    f"{s}\t{len(_OUT_DEGREES) + k}\n" for k, s in enumerate(s for s, d in enumerate(_OUT_DEGREES) for _ in range(d))
)


@pytest.mark.parametrize(
    "text, flags, want, fits",
    [
        ("0\t1\n2\n", [], "{edges}:2: expected two node ids", 0),
        ("0\t1\n2\t7\n", ["--n", "5"], "{edges}: node id 7 outside [0, 5)", 0),
        ("-5\t-3\n-4\t-2\n", [], "{edges}: node id -5 is negative", 0),
        ("".join(f"{2 * i}\t{2 * i + 1}\n" for i in range(50)), [], "all samples equal; no power-law fit possible", 1),
        (_ONE_ARC_PER_TARGET, ["--directed"], "all samples equal; no power-law fit possible", 2),
    ],
    ids=["malformed", "id-beyond-n", "negative-ids", "degenerate-fit", "directed-in-fit-fails"],
)
def test_analyze_failure_creates_no_out_dir(tmp_path, capsys, monkeypatch, text, flags, want, fits):
    edges = tmp_path / "edges.tsv"
    edges.write_text(text, encoding="utf-8")
    calls = []
    fit = threshnet.statfit.fit_powerlaw_discrete
    monkeypatch.setattr(threshnet.statfit, "fit_powerlaw_discrete", lambda *a, **k: calls.append(a) or fit(*a, **k))
    code, out, err = run(capsys, "analyze", "--edges", str(edges), *flags, "--bootstrap", "100",
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", f"error: {want.format(edges=edges)}\n")
    assert len(calls) == fits
    assert list(tmp_path.iterdir()) == [edges]


_SCIPY_FREE_RUN = """
import json, sys
import threshnet.cli
from threshnet import ParetoParams, PowerLawSchedule, fit_powerlaw_discrete, gof_pvalue, run_growth_sweep, sample_node_table
threshnet.cli.main(["generate", "--n", "2000", "--a", "3", "--theta", "3", "--seed", "1", "--out-dir", sys.argv[1]])
run_growth_sweep(PowerLawSchedule(D=1.0), [1000, 2000], ParetoParams(3.0, 1.0), [1])
samples = json.loads(sys.argv[2])
fit = fit_powerlaw_discrete(samples)
gof = gof_pvalue(samples, fit, n_bootstrap=100, seed=1)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
_, dirs = sample_node_table(500, 1, ParetoParams(3.0, 1.0), 5)
print(json.dumps({"loaded": loaded, "dirs": dirs.tolist(), "alpha": fit.alpha_hat, "ks": fit.ks_stat, "p": gof.p_value}))
"""


def test_cli_import_generate_and_sweep_load_no_scipy(tmp_path):
    # The test process has scipy loaded, so the import is watched in a fresh interpreter.
    env = _child_env()
    samples = np.random.default_rng(3).zipf(2.5, 400).tolist()
    argv = [sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path / "g"), json.dumps(samples)]
    stdout = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    out = json.loads(stdout.splitlines()[-1])  # after the lines `generate` prints
    assert out["loaded"] == []
    # directions at d = 5 load scipy.special on first use, with the same results as here
    _, dirs = threshnet.sample_node_table(500, 1, ParetoParams(3.0, 1.0), 5)
    fit = threshnet.fit_powerlaw_discrete(samples)
    assert np.array_equal(np.array(out["dirs"]), dirs)
    assert (out["alpha"], out["ks"]) == (fit.alpha_hat, fit.ks_stat)
    assert out["p"] == threshnet.gof_pvalue(samples, fit, n_bootstrap=100, seed=1).p_value


_ANALYZE_RUN = """
import json, sys
from threshnet.cli import main
g, a = sys.argv[1:]
main(["generate", "--n", "2000", "--a", "3", "--theta", "3", "--seed", "1", "--out-dir", g])
main(["generate", "--n", "2000", "--a", "3", "--theta", "3", "--variant", "directed", "--alpha", "1", "--beta", "2",
      "--seed", "1", "--out-dir", g + "/directed"])
with open(g + "/degrees.txt", "w") as f:
    f.write("\\n".join(str(k) for k in [1, 1, 2, 3, 5, 8, 13] * 20) + "\\n")
loaded = {}
for name, source in [
    ("edges", ["--edges", g + "/edges.tsv", "--n", "2000"]),
    ("degrees", ["--degrees", g + "/degrees.txt"]),
    ("directed", ["--edges", g + "/directed/edges.tsv", "--n", "2000", "--directed"]),
]:
    main(["analyze", *source, "--bootstrap", "100", "--out-dir", a + "/" + name])
    loaded[name] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
calibrated = {}
for name, argv in [
    ("calibrate", ["calibrate", "--n", "100", "--a", "3", "--w0", "1", "--target-edges", "1237.5"]),
    ("generate", ["generate", "--n", "2000", "--a", "3", "--target-edges", "3000", "--out-dir", g + "/target"]),
    ("sweep", ["growth", "sweep", "--schedule", "linear", "--a", "3", "--ns", "1000,2000", "--out-dir", g + "/linear"]),
]:
    assert main(argv) == 0
    calibrated[name] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
main(["oracle", "pew-linkfn", "--a", "3", "--theta", "10", "--w", "2", "--alpha", "1", "--beta", "2", "--h", "exp"])
print(json.dumps({"analyze": loaded, "calibrated": calibrated, "pew-linkfn": "scipy.integrate" in sys.modules}))
"""


def test_cli_analyze_and_calibration_load_no_scipy_and_pew_linkfn_does(tmp_path, capsys):
    # analyze fits with statfit's own zeta and bounded minimizer, and calibration
    # bisects the doubles; the link-function integral's quad needs scipy.integrate,
    # so the check is seen to catch a scipy import
    env = _child_env()
    argv = [sys.executable, "-c", _ANALYZE_RUN, str(tmp_path / "g"), str(tmp_path / "fresh")]
    stdout = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    out = json.loads(stdout.splitlines()[-1])
    assert out["analyze"] == {"edges": [], "degrees": [], "directed": []}
    assert out["calibrated"] == {"calibrate": [], "generate": [], "sweep": []}
    assert out["pew-linkfn"]
    # the fresh run's fit and p-value are the ones this process computes
    code, _, _ = run(
        capsys, "analyze", "--edges", str(tmp_path / "g" / "edges.tsv"), "--n", "2000",
        "--bootstrap", "100", "--out-dir", str(tmp_path / "here"),
    )
    assert code == 0
    for name in ("fit.json", "ccdf.csv"):
        assert (tmp_path / "fresh" / "edges" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
    assert read_json(tmp_path / "here" / "fit.json")["p_value"] is not None


# every name `threshnet` exports
_EXPORTS = sorted("""
DimensionError DomainError FeasibilityError FitDegenerateError NumericError ResourceLimitError SeriesFormatError
ThreshnetError UnsupportedAnalyticsError EdgeRule LinkFn ModelConfig ParetoParams Variant sample_node_table Graph
degree_sequence generate CalibratedSchedule PowerLawSchedule calibrate_theta calibrate_theta_directed
expected_arcs_directed expected_edges expected_edges_linlog p_edge p_edge_given_weight p_edge_given_weight_linkfn
p_wedge theta_powerlaw_schedule variance_edges FitResult GofResult ccdf fit_powerlaw_discrete gof_pvalue GrowthFit
GrowthPoint GrowthSeries concentration_report fit_growth_curve ingest_edge_count_series run_growth_sweep
write_series_csv
""".split())

_IMPORT_RUN = """
import ctypes, json, os, sys
from pathlib import Path

def blas_threads():
    import numpy
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None

environ = dict(os.environ)
import threshnet
out = {"numpy": "numpy" in sys.modules, "environ_kept": dict(os.environ) == environ}
try:
    threshnet.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
import threshnet.cli
out["set"] = {k: v for k, v in os.environ.items() if environ.get(k) != v}
out["blas_threads"] = blas_threads()
star = {}
exec("from threshnet import *", star)
del star["__builtins__"]
out["star"] = sorted(star)
out["same"] = all(getattr(threshnet, name) is value for name, value in star.items())
out["homes"] = [threshnet.generate is threshnet.generator.generate, threshnet.ParetoParams is threshnet.model.ParetoParams]
out["dir"] = dir(threshnet)
print(json.dumps(out))
"""


@pytest.mark.parametrize("threads", [None, "2"])
def test_import_loads_no_numpy_and_cli_runs_one_blas_thread_unless_told(threads):
    # numpy is loaded here, so the import is watched in a fresh interpreter
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    stdout = subprocess.run([sys.executable, "-c", _IMPORT_RUN], env=env, capture_output=True, text=True,
                            check=True).stdout
    out = json.loads(stdout)
    assert (out["numpy"], out["environ_kept"]) == (False, True)
    assert out["unknown"] == "module 'threshnet' has no attribute 'no_such_name'"
    assert out["star"] == _EXPORTS and out["same"] and out["homes"] == [True, True]
    assert set(_EXPORTS) <= set(out["dir"])
    # the CLI sets the variable only where the caller has not
    assert out["set"] == ({"OPENBLAS_NUM_THREADS": "1"} if threads is None else {})
    if out["blas_threads"] is None:
        pytest.skip("no OpenBLAS thread-count symbol in numpy's bundled libraries")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert out["blas_threads"] == (1 if threads is None else min(int(threads), cpus))


def test_growth_sweep_and_fit(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "growth", "--schedule", "powerlaw", "--D", "1", "--a", "3",
        "--ns", "1000,3000,10000", "--seeds", "3", "--fit",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "series_seed0.csv").exists()
    assert (tmp_path / "growth_fit.json").exists()
    assert "mean_m" in out


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_growth_help_lists_sweep_and_fit(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["growth", flag])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: threshnet growth ") and "sweep" in out and "fit" in out and "--schedule" not in out


def test_growth_sweep_linear_schedule_puts_em_at_coeff_n(tmp_path, capsys):
    code, _, _ = run(capsys, "growth", "sweep", "--schedule", "linear", "--coeff", "2", "--a", "3",
                     "--ns", "200,400,800", "--out-dir", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "series_seed0.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "n,m,em,var,theta"
    for row in rows[1:]:
        n, _, em = row.split(",")[:3]
        assert float(em) == pytest.approx(2 * int(n), rel=1e-10, abs=0.0)


def test_growth_sweep_twenty_seeds_reports_concentration(tmp_path, capsys):
    code, out, _ = run(capsys, "growth", "sweep", "--schedule", "powerlaw", "--D", "1", "--a", "3",
                       "--ns", "100,200", "--seeds", "20", "--out-dir", str(tmp_path))
    assert code == 0
    lines = [line for line in out.splitlines() if "predicted_var=" in line]
    assert [line.split()[0] for line in lines] == ["n=100", "n=200"]
    for line in lines:
        fields = dict(f.split("=") for f in line.replace(" FLAGGED", "").split())
        ratio = float(fields["sample_var"]) / float(fields["predicted_var"])
        assert float(fields["ratio"]) == pytest.approx(ratio, rel=1e-2)
        assert line.endswith(" FLAGGED") == (not 0.5 <= float(fields["ratio"]) <= 2.0)
    assert len(list(tmp_path.glob("series_seed*.csv"))) == 20


def test_growth_sweep_concentration_leaves_out_one_node(tmp_path, capsys):
    code, out, _ = run(capsys, "growth", "sweep", "--schedule", "powerlaw", "--D", "1", "--a", "3",
                       "--ns", "1,10,20", "--seeds", "20", "--out-dir", str(tmp_path))
    assert code == 0
    lines = [line for line in out.splitlines() if "predicted_var=" in line]
    assert [line.split()[0] for line in lines] == ["n=10", "n=20"]
    assert len(list(tmp_path.glob("series_seed*.csv"))) == 20


def test_growth_fit_count_beyond_int64_exits_one(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text(f"n,m\n10,5\n100,{10 ** 400}\n1000,1500\n", encoding="utf-8")
    code, _, err = run(capsys, "growth", "fit", "--in", str(path))
    assert code == 1
    assert err == f"error: {path}:3: m {10 ** 400} outside the int64 range\n"


@pytest.mark.parametrize("row", ["0,0", "-5,0"])
def test_growth_fit_node_count_below_one_exits_one(tmp_path, capsys, row):
    path = tmp_path / "series.csv"
    path.write_text(f"n,m\n{row}\n10,5\n100,90\n1000,1500\n", encoding="utf-8")
    code, _, err = run(capsys, "growth", "fit", "--in", str(path))
    assert code == 1
    assert err == f"error: {path}: node counts must be at least 1\n"


def test_growth_fit_from_csv(tmp_path, capsys):
    ns = np.geomspace(10 ** 4, 10 ** 6, 8).astype(int)
    lines = ["n,m"] + [f"{n},{int(round(4.95 * n * np.log(n) - 40 * n))}" for n in ns]
    path = tmp_path / "series.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "growth", "fit", "--in", str(path))
    assert code == 0
    payload = json.loads(out.splitlines()[-1])
    assert payload["c1"] == pytest.approx(4.95, rel=1e-3)
    assert payload["c2"] == pytest.approx(-40.0, rel=1e-3)


def test_growth_fit_non_utf8_csv_exits_one(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_bytes(b"n,m\n10,5\n\xff,7\n")
    code, _, err = run(capsys, "growth", "fit", "--in", str(path))
    assert code == 1
    assert err.startswith("error: ") and f"{path}: not UTF-8 text" in err


def test_growth_fit_malformed_csv_exits_one(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("n,m\n10,5\nbroken\n", encoding="utf-8")
    code, _, err = run(capsys, "growth", "fit", "--in", str(path))
    assert code == 1
    assert ":3" in err


def test_nodes_tsv_round_trip_exact(tmp_path, pareto3):
    from threshnet import sample_node_table

    weights, dirs = sample_node_table(50, 9, pareto3, 4)
    path = tmp_path / "nodes.tsv"
    tio.write_nodes_tsv(path, weights, dirs)
    w2, d2 = read_nodes_tsv(path)
    assert np.array_equal(weights, w2)
    assert np.array_equal(dirs, d2)


def test_nodes_tsv_rejects_gaps(tmp_path):
    path = tmp_path / "nodes.tsv"
    path.write_text("0\t1.5\t0\t0\t1\n2\t1.5\t0\t0\t1\n", encoding="utf-8")
    with pytest.raises(SeriesFormatError):
        read_nodes_tsv(path)


def test_edges_tsv_round_trip(tmp_path):
    edges = np.array([[0, 1], [0, 2], [5, 9]], dtype=np.int64)
    path = tmp_path / "edges.tsv"
    tio.write_edges_tsv(path, edges)
    assert np.array_equal(tio.read_edges_tsv(path), edges)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "threshnet" in capsys.readouterr().out


def test_growth_sweep_fit_needs_three_sizes_before_sampling(tmp_path, capsys, monkeypatch):
    sampled = []
    for name in ("sample_weights", "sample_directions"):
        monkeypatch.setattr(threshnet.growth, name, lambda *args, **kwargs: sampled.append(args))
    code, out, err = run(capsys, "growth", "sweep", "--schedule", "powerlaw", "--D", "1", "--a", "3",
                         "--ns", "10,20", "--seeds", "2", "--fit", "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", "error: growth fit needs at least 3 distinct n values\n")
    assert sampled == []
    assert not any(tmp_path.iterdir())


def test_growth_sweep_with_a_size_below_one_exits_one_before_sampling(tmp_path, capsys, monkeypatch):
    sampled = []
    for name in ("sample_weights", "sample_directions"):
        monkeypatch.setattr(threshnet.growth, name, lambda *args, **kwargs: sampled.append(args))
    code, out, err = run(capsys, "growth", "sweep", "--schedule", "powerlaw", "--D", "1", "--a", "3",
                         "--ns", "0,10", "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", "error: node count must be >= 1, got 0\n")
    assert sampled == []
    assert not any(tmp_path.iterdir())


def test_growth_sweep_with_no_predicted_variance_exits_zero(tmp_path, capsys):
    # theta = 1e300 * n^(1/3) links no pair, so there is no concentration row to print
    code, out, err = run(capsys, "growth", "sweep", "--schedule", "powerlaw", "--D", "1e300", "--a", "3",
                         "--ns", "10,20", "--seeds", "20", "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()] == ["n=10", "n=20"]
    assert "predicted_var=" not in out
    assert len(list(tmp_path.glob("series_seed*.csv"))) == 20


@pytest.mark.parametrize(
    "flags",
    [["--theta", "1"], ["--theta", "1", "--variant", "directed", "--alpha", "2", "--beta", "1"]],
    ids=["undirected", "directed"],
)
def test_generate_with_overflowing_weights_prints_no_warning(tmp_path, flags):
    # in a fresh interpreter: pytest would collect a warning raised in this process
    env = _child_env()
    argv = [sys.executable, "-m", "threshnet.cli", "generate", "--n", "50", "--a", "3", "--w0", "1e200", *flags,
            "--out-dir", str(tmp_path)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("n=50 edges=")


@pytest.mark.parametrize(
    "argv, want",
    [
        (["oracle", "pe", "--a", "1e300", "--theta", "2"], 0.0),
        (["oracle", "pe", "--a", "1e300", "--theta", "0.5"], 0.25),
        (["oracle", "pwedge", "--a", "1e300", "--theta", "0.5"], 0.0625),
        (["oracle", "pwedge", "--a", "1e300", "--theta", "2"], 0.0),
        # p_wedge = p_edge^2 there, which leaves the Bernoulli term 4950 * 0.25 * 0.75
        (["oracle", "var", "--a", "1e300", "--n", "100", "--theta", "0.5"], 928.125),
        # p_edge = (1 - theta) / 2 below theta = 1 at a = 1e300, so 4950 * p_edge = 10 at 1 - 20/4950
        (["calibrate", "--n", "100", "--a", "1e300", "--target-edges", "10"], 1.0 - 20.0 / 4950.0),
        (["oracle", "pe", "--a", "3", "--theta", "inf"], 0.0),
        (["oracle", "var", "--a", "3", "--n", "100", "--theta", "inf"], 0.0),
        (["oracle", "pe", "--a", "inf", "--theta", "2"], "error: Pareto shape must be positive and finite, got a=inf"),
        (["calibrate", "--n", "100", "--a", "inf", "--target-edges", "10"],
         "error: Pareto shape must be positive and finite, got a=inf"),
        (["oracle", "pe", "--a", "3", "--w0", "inf", "--theta", "2"],
         "error: Pareto scale must be positive and finite, got w0=inf"),
        (["oracle", "em-linlog", "--a", "3", "--n", "100", "--D", "inf"],
         "error: schedule coefficient must be positive and finite, got D=inf"),
        (["generate", "--n", "100", "--a", "3", "--schedule", "powerlaw", "--D", "inf"],
         "error: schedule coefficient must be positive and finite, got D=inf"),
        (["oracle", "pew-directed", "--a", "3", "--theta", "10", "--w", "2", "--alpha", "1", "--beta", "inf"],
         "error: alpha and beta must be positive and finite, got 1.0, inf"),
        (["oracle", "pew-linkfn", "--a", "3", "--theta", "10", "--w", "2", "--alpha", "1", "--beta", "inf", "--h", "exp"],
         "error: alpha and beta must be positive and finite, got 1.0, inf"),
        (["calibrate", "--n", "100", "--a", "3", "--target-edges", "100", "--variant", "directed", "--alpha", "inf",
          "--beta", "1"], "error: alpha and beta must be positive and finite, got inf, 1.0"),
        (["generate", "--n", "2000", "--a", "3", "--theta", "3", "--variant", "directed", "--alpha", "inf",
          "--beta", "1"], "error: alpha and beta must be positive and finite, got inf, 1.0"),
    ],
    ids=[
        "pe-huge-a-low", "pe-huge-a-high", "pwedge-huge-a-low", "pwedge-huge-a-high", "var-huge-a",
        "calibrate-huge-a", "pe-inf-theta", "var-inf-theta", "pe-inf-a", "calibrate-inf-a", "pe-inf-w0",
        "em-linlog-inf-D", "generate-inf-D", "pew-directed-inf-beta", "pew-linkfn-inf-beta",
        "calibrate-inf-alpha", "generate-inf-alpha",
    ],
)
def test_closed_forms_at_the_edges_of_their_domain(tmp_path, capsys, monkeypatch, argv, want):
    # a finite value, or one error line with exit 1: never NaN or a traceback
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    if isinstance(want, str):
        assert (code, out, err) == (1, "", want + "\n")
        assert not any(tmp_path.iterdir())
        return
    assert (code, err) == (0, "")
    assert float(out.splitlines()[0]) == pytest.approx(want, rel=1e-12, abs=0.0)
