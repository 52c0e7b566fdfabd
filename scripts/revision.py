"""Export a revision of this repository's files, for the scripts that time
this checkout against another revision."""

import io
import pathlib
import subprocess
import tarfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def export(rev: str, into: pathlib.Path, path: str = "", to: str = "") -> None:
    """Write the files under path at rev (every file for "") to into/to, as
    `git archive` gives them: local, and .git is left alone."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, *([path] if path else [])],
                         cwd=ROOT, capture_output=True, check=True).stdout
    prefix = f"{path}/" if path else ""
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if member.isfile() and member.name.startswith(prefix):
                target = into / to / member.name[len(prefix):]
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(archive.extractfile(member).read())
