"""The bundled scripts run end to end against the library."""

import json
import os
import subprocess
import sys

import pytest

from .golden import ROOT


def test_reproduce_figures_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "scripts/reproduce_figures.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "data" / "reproduce_figures.txt").read_text()


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export from")
def test_kernel_pair_runs():
    done = subprocess.run([sys.executable, "scripts/kernel_pair.py", "HEAD", "--rounds", "1",
                           "--seeds", "3"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split()[-3:] == ["HEAD", "this", "change"]
    assert [line.split()[0] for line in lines[1:]] == ["moves"] + ["equilibria"] * 2 + ["rows"] * 4


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export from")
def test_kernel_pair_times_deletions():
    done = subprocess.run([sys.executable, "scripts/kernel_pair.py", "HEAD", "delete",
                           "--rounds", "1", "--seeds", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert [line.rsplit(None, 3)[0] for line in done.stdout.splitlines()[1:]] == [
        "delete random_game 0..2", "delete dense-7"]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export from")
def test_kernel_pair_times_routing():
    done = subprocess.run([sys.executable, "scripts/kernel_pair.py", "HEAD", "routing",
                           "--rounds", "1", "--seeds", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert [line.rsplit(None, 3)[0] for line in done.stdout.splitlines()[1:]] == [
        "routing random_notg 0..2"]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export from")
def test_kernel_pair_times_belief_analyses():
    done = subprocess.run([sys.executable, "scripts/kernel_pair.py", "HEAD", "belief", "label",
                           "--rounds", "1", "--seeds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert [line.rsplit(None, 3)[0] for line in done.stdout.splitlines()[1:]] == [
        f"belief {family}-{n}, {n} players" for n in (3, 4)
        for family in ("oscillating", "converging")] + ["label pc oscillating-14"]


@pytest.fixture(scope="module")
def smoke_bench(tmp_path_factory):
    """One pair on ring, the checkout as the change: run once, read by the
    two tests below."""
    out = tmp_path_factory.mktemp("smoke")
    done = subprocess.run([sys.executable, "scripts/bench_pair.py", "HEAD", "smoke",
                           "--workloads", "ring", "--pairs", "1", "--seconds", "0",
                           "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads((out / "BENCH_smoke.json").read_text())


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export from")
def test_bench_pair_runs(smoke_bench):
    ring = smoke_bench["workloads"]["ring"]
    assert ring["correct"] == {"base": True, "change": True}
    assert ring["first"] == ["base"]
    for m in ring["metrics"].values():
        assert m["pairs"] == 1 and 0 <= m["wins"] <= 1
        for side in ("base", "change"):
            (value,) = m[side]["values"]
            assert m[side]["q1"] == m[side]["median"] == m[side]["q3"] == value


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export from")
def test_bench_pair_names_the_commits(smoke_bench):
    """The file names the commit each side resolved to, so that it still
    says what it measured once HEAD moves, and marks a checkout that
    differs from its HEAD."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    head = git("rev-parse", "HEAD")
    assert (smoke_bench["base"], smoke_bench["change"]) == ("HEAD", "checkout")
    assert smoke_bench["commits"] == {"base": head, "change": head}
    assert smoke_bench.get("dirty", False) == bool(git("status", "--porcelain",
                                                       "--untracked-files=no"))


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export from")
def test_bench_pair_runs_a_second_revision(tmp_path):
    done = subprocess.run([sys.executable, "scripts/bench_pair.py", "HEAD", "smoke",
                           "--change", "HEAD", "--workloads", "ring", "--pairs", "1",
                           "--seconds", "0", "--out", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert (bench["base"], bench["change"]) == ("HEAD", "HEAD")
    assert bench["workloads"]["ring"]["correct"] == {"base": True, "change": True}


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export from")
def test_bench_pair_reports_a_failed_run(tmp_path):
    """perfbench/run.py refuses an unknown workload; the script names the
    run that failed, shows its stderr and writes no file."""
    done = subprocess.run([sys.executable, "scripts/bench_pair.py", "HEAD", "smoke",
                           "--workloads", "nope", "--pairs", "1", "--seconds", "0",
                           "--out", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1
    assert "the base run of nope at seed 1 exited with status 2" in done.stderr
    assert "invalid choice: 'nope'" in done.stderr
    assert "Traceback" not in done.stderr
    assert not list(tmp_path.iterdir())


def test_working_tree_exports_the_files_as_they_stand(tmp_path, monkeypatch):
    """bench_pair.py exports the checkout through working_tree: edited and
    new files go in, deleted and ignored ones do not, and the repository's
    own index is left as it was."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from revision import export, working_tree

    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               "-c", "commit.gpgsign=false", *args], cwd=repo,
                              capture_output=True, text=True, check=True).stdout

    files = {".gitignore": "ignored.txt\n", "a.txt": "a", "b.txt": "b", "sub/c.txt": "c"}
    for name, text in files.items():
        (repo / name).parent.mkdir(exist_ok=True)
        (repo / name).write_text(text)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "a.txt").write_text("staged")
    git("add", "a.txt")
    (repo / "b.txt").write_text("edited")
    (repo / "sub" / "c.txt").unlink()
    (repo / "new.txt").write_text("new")
    (repo / "ignored.txt").write_text("ignored")
    status = git("status", "--porcelain")
    index = (repo / ".git" / "index").read_bytes()

    export(working_tree(repo), tmp_path / "out", root=repo)
    assert (repo / ".git" / "index").read_bytes() == index
    assert git("status", "--porcelain") == status
    out = tmp_path / "out"
    assert {str(p.relative_to(out)): p.read_text() for p in out.rglob("*") if p.is_file()} == {
        ".gitignore": "ignored.txt\n", "a.txt": "staged", "b.txt": "edited", "new.txt": "new"}
