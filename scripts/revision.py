"""Export a revision of this repository's files, for the scripts that time
this checkout against another revision."""

import io
import os
import pathlib
import subprocess
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def export(rev: str, into: pathlib.Path, path: str = "", to: str = "",
           root: pathlib.Path = ROOT) -> None:
    """Write the files under path at rev (every file for "") to into/to, as
    `git archive` gives them: local, and .git is left alone.  rev may name
    a commit or a tree of the repository at root."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, *([path] if path else [])],
                         cwd=root, capture_output=True, check=True).stdout
    prefix = f"{path}/" if path else ""
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if member.isfile() and member.name.startswith(prefix):
                target = into / to / member.name[len(prefix):]
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(archive.extractfile(member).read())


def working_tree(root: pathlib.Path = ROOT) -> str:
    """The id of a tree of the files at root as they stand: HEAD's files
    with their edits and deletions, and every untracked file that
    .gitignore does not name.  It is built in a temporary index, so the
    repository's own index is left as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(pathlib.Path(tmp) / "index")}
        for args in (["read-tree", "HEAD"], ["add", "-A"], ["write-tree"]):
            done = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                                  text=True, check=True)
        return done.stdout.strip()
