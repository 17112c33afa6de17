"""Independent checks of job outputs.

Nothing here reuses the library's own verdicts.  Relations are re-checked
with plain loops over the generated table, verdicts are compared with what
the generator knows by construction, and byleen words are re-evaluated with
``byleen.reduce_rightmost`` (the rewriting oracle, not the stack reducer the
commands use).  ``check`` returns None for a correct output or a one-line
reason.
"""

from __future__ import annotations

import json
import re

from sgdsc import byleen, finite

MODEL_CHECKS = {"bicyclic": 6, "bruck-reilly": 4, "baer-levi": 4, "z": 3}

_TOKEN = re.compile(r"^(?:([ab])\((\d+),s(\d+)\)|s(\d+)|1)$")


class Verifier:
    def __init__(self):
        self._matrices = {}

    def check(self, job, rc, out):
        if job.kind == "span":
            case, factors = out
            return self._span(job.expect, case, factors)
        if job.kind == "baer-levi":
            want = (job.expect["member"],) * 3
            return None if out == want else f"rho memberships {out}, expected {want}"
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(out)
        command = job.args[0]
        if command == "enumerate":
            return None if report == job.expect["golden"] else f"got {report}"
        if command == "check":
            return self._check(job, report)
        if command == "witness":
            return _witness(job.expect, report["witness"])
        if command == "models":
            return _models(job.expect["model"], report)
        return self._byleen(job, report)

    # -- finite tables -----------------------------------------------------

    def _check(self, job, report):
        e = job.expect
        n = len(e["table"])
        checks = {c["name"]: c for c in report["checks"]}
        if report["subject"]["order"] != n:
            return "wrong order"
        for name in ("group", "dsc"):
            if checks[name]["pass"] != e["group"]:
                return f"{name} verdict {checks[name]['pass']} for {e['name']}"
        if "--brute" in job.args:
            brute = checks["dsc_brute"]
            if n > 4:
                if not brute.get("skipped"):
                    return "subset scan ran above order 4"
            elif brute["pass"] != e["group"]:
                return f"dsc_brute verdict {brute['pass']} for {e['name']}"
            elif not e["group"]:
                reason = _brute_witness(e["table"], brute["witness"]["pairs"])
                if reason:
                    return reason
        elif "dsc_brute" in checks:
            return "subset scan ran without --brute"
        if e["group"]:
            return None
        return _witness(e, checks["dsc"]["witness"])

    # -- byleen ------------------------------------------------------------

    def _matrix(self, base):
        if base not in self._matrices:
            monoid = finite.cyclic_group(2) if base == "c2" else finite.trivial_monoid()
            self._matrices[base] = byleen.TwoTransitiveMatrix(monoid)
        return self._matrices[base]

    def _nf(self, base, word):
        """Normal form letters of a word, by rightmost reduction."""
        m = self._matrix(base)
        return tuple(byleen.reduce_rightmost(m, word).letters())

    def _parse(self, base, text):
        m = self._matrix(base)
        word = []
        for tok in text.split():
            kind, n, s, selem = _TOKEN.match(tok).groups()
            if kind == "a":
                word.append(byleen.ALetter(int(n), int(s)))
            elif kind == "b":
                word.append(byleen.BLetter(int(n), int(s)))
            elif selem is not None:
                word.append(byleen.SElem(int(selem)))
            else:
                word.append(byleen.SElem(m.identity))
        return tuple(word)

    def _span(self, e, case, factors):
        """Factors are ("gen",) or ("diag", word); the product must be (w1, w2)."""
        base = e["base"]
        if case != e["case"]:
            return f"case {case}, expected {e['case']}"
        if (byleen.GEN,) not in factors:
            return "certificate uses no generator"
        g, h = letters(e["g"]), letters(e["h"])
        left = tuple(w for f in factors for w in (g if f[0] == byleen.GEN else f[1]))
        right = tuple(w for f in factors for w in (h if f[0] == byleen.GEN else f[1]))
        if self._nf(base, left) != self._nf(base, letters((e["w1"],))):
            return "left product is not w1"
        if self._nf(base, right) != self._nf(base, letters((e["w2"],))):
            return "right product is not w2"
        return None

    def _byleen(self, job, report):
        e = job.expect
        base = e["base"]
        action = job.args[1]
        if action == "span":
            gh = (self._nf(base, letters(e["g"])), self._nf(base, letters(e["h"])))
            factors = []
            for f in report["factors"]:
                if "gen" in f:
                    if tuple(self._normal(base, w) for w in f["gen"]) != gh:
                        return "generator factor is not (g, h)"
                    factors.append((byleen.GEN,))
                else:
                    factors.append(("diag", self._parse(base, f["diag"])))
            return self._span(e, report["case"], factors)
        if action in ("eval", "mul"):
            want = self._nf(base, sum((letters(w) for w in e["words"]), ()))
            got = self._normal(base, report["normal_form"])
            return None if got == want else f"{action}: normal form differs"
        t = self._nf(base, letters(e["words"][0]))
        if self._normal(base, report["element"]) != t:
            return "inverse: element is not the input's normal form"
        y = self._normal(base, report["inverse"])
        if self._nf(base, y) != y:
            return "inverse: not a normal form"
        if self._nf(base, t + y + t) != t or self._nf(base, y + t + y) != y:
            return "inverse: t y t != t or y t y != y"
        return None

    def _normal(self, base, text):
        """Letters of a rendered normal form; the identity is written only alone."""
        e = self._matrix(base).identity
        return tuple(w for w in self._parse(base, text)
                     if not (isinstance(w, byleen.SElem) and w.s == e))


def letters(word):
    """Workload letters ("a"|"b", n, s) / ("s", s) as library letters."""
    out = []
    for letter in word:
        if letter[0] == "a":
            out.append(byleen.ALetter(letter[1], letter[2]))
        elif letter[0] == "b":
            out.append(byleen.BLetter(letter[1], letter[2]))
        else:
            out.append(byleen.SElem(letter[1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Relations, with plain loops

def _closed(t, rho):
    return all((t[x][z], t[y][w]) in rho for (x, y) in rho for (z, w) in rho)


def _witness(e, w):
    t = e["table"]
    n = len(t)
    if w["strategy"] != e["strategy"]:
        return f"strategy {w['strategy']}, expected {e['strategy']} for {e['name']}"
    rho = {tuple(p) for p in w["pairs"]}
    if any(not (0 <= x < n and 0 <= y < n) for (x, y) in rho):
        return "witness pair out of range"
    if any((x, x) not in rho for x in range(n)):
        return "witness misses a diagonal pair"
    x, y = w["failing_pair"]
    if (x, y) not in rho or (y, x) in rho:
        return "failing pair is not an asymmetric member"
    if not _closed(t, rho):
        return "witness is not closed under products"
    return None


def _brute_witness(t, pairs):
    n = len(t)
    rho = {tuple(p) for p in pairs}
    if any((x, x) not in rho for x in range(n)) or not _closed(t, rho):
        return "subset-scan witness is not a diagonal subsemigroup"
    symmetric = all((y, x) in rho for (x, y) in rho)
    transitive = all((x, z) in rho for (x, y) in rho for (y2, z) in rho if y == y2)
    if symmetric and transitive:
        return "subset-scan witness is a congruence"
    return None


def _models(name, report):
    checks = report["checks"]
    if len(checks) != MODEL_CHECKS[name] or not all(c["pass"] for c in checks):
        return f"model suite {name} failed"
    if name == "baer-levi":
        found = {c["name"]: c["witness"]["intersection"] for c in checks if "witness" in c}
        if not (found["fg_member"] and found["gh_member"]) or found["fh_non_member"]:
            return "Baer-Levi fg/gh/not-fh pattern broken"
    return None
