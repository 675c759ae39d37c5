"""Checks of one invocation's output against its expected outcome.

``check`` returns a list of problems; an invocation with any problem counts
as failed.  A problem is "known" when it is the documented defect the
workload names (a ``verify`` record listed in ``fail_records`` that reports
``fail``, and the exit code 1 that follows from it); every other problem is
unexpected and makes the run's result incorrect.
"""

import hashlib
import json
import os

# Relative cut-value tolerance the CLI applies by default (``--tol``); the
# absolute tolerance is this times the curve's bounding-box diagonal.
CUT_TOL = 1e-6


def digest(data):
    return hashlib.sha256(data).hexdigest()


def check(inv, returncode, stdout, extent, reference_digest=None):
    """Problems with one invocation's result, as (known, message) pairs.

    returncode is None when the invocation crashed or timed out.
    extent is the shape's bounding-box diagonal, which scales the cut
    tolerance.  reference_digest is the digest of the same invocation's
    stdout from another run of the same program, when there is one.
    """
    problems = []
    if returncode is None:
        return [(False, "crashed or timed out")]
    if returncode >= 2 or returncode < 0:
        return [(False, f"exit code {returncode}")]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [(False, "stdout is not JSON")]
    if reference_digest is not None and digest(stdout) != reference_digest:
        problems.append((False, "stdout differs from another run"))

    try:
        known_fails = _content_problems(inv, doc, extent, problems)
    except (KeyError, TypeError, AttributeError) as e:
        return problems + [(False, f"stdout lacks an expected field: {e!r}")]
    if returncode != inv["exit_code"]:
        # verify exits 1 exactly when a record fails
        known = returncode == 1 and bool(known_fails) and all(known_fails)
        problems.append((known, f"exit code {returncode}, "
                                f"expected {inv['exit_code']}"))
    return problems


def _content_problems(inv, doc, extent, problems):
    """Append verdict, closed-form and record problems; returns, for each
    failing verify record, whether it is a known defect."""
    known_fails = []
    if inv["command"] == "verify":
        for rec in doc:
            if rec["status"] == "fail":
                known = rec["name"] in inv["fail_records"]
                known_fails.append(known)
                residual = rec.get("rel_residual")
                problems.append((known, f"record {rec['name']} fails, "
                                        f"rel_residual {residual}"))
        return known_fails
    if doc["verdict"] != inv["verdict"]:
        problems.append((False, f"verdict {doc['verdict']!r}, "
                                f"expected {inv['verdict']!r}"))
    if inv["lam"] is not None:
        lam = doc["lambda_at_y0"] if inv["command"] == "report" \
            else doc["y0"]["lambda"]
        want = inv["lam"](doc["y0"])
        if not abs(lam - want) <= CUT_TOL * extent:
            problems.append((False, f"lambda_at_y0 {lam!r}, closed form "
                                    f"{want!r}, tolerance "
                                    f"{CUT_TOL * extent:.3g}"))
    return known_fails


class DigestStore:
    """Stdout digests per invocation, kept across runs of one program.

    Entries are keyed by a hash of the program's source files, so a store
    never compares outputs of two different programs.
    """

    def __init__(self, path, source_dir):
        self.path = path
        self.version = _tree_hash(source_dir)
        self.entries = {}
        try:
            with open(path) as fh:
                stored = json.load(fh)
        except (OSError, ValueError):
            stored = {}
        if stored.get("version") == self.version:
            self.entries = stored.get("digests", {})

    @staticmethod
    def key(inv):
        return json.dumps(inv["argv"])

    def get(self, inv):
        return self.entries.get(self.key(inv))

    def add(self, inv, stdout):
        self.entries.setdefault(self.key(inv), digest(stdout))

    def save(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"version": self.version, "digests": self.entries}, fh,
                      indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def _tree_hash(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(digest(fh.read()).encode())
    return h.hexdigest()
