"""Output oracles that do not depend on the code under test.

Every ``check_*`` function returns a list of problems, empty when the output
is right.  An operation whose list is not empty counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

STABILIZER_DIM = {"FULL": 14, "TORUS": 2, "DIM4_SHORT": 4, "DIM4_LONG": 4}
VANISHING_COUNT = {"FULL": 12, "TORUS": 0, "DIM4_SHORT": 2, "DIM4_LONG": 2}
#: (dim, derived_dim, center_dim) of the centralizer: g2, u(1)+u(1), su(2)+u(1)
FINGERPRINT = {
    "FULL": (14, 14, 0),
    "TORUS": (2, 0, 2),
    "DIM4_SHORT": (4, 3, 1),
    "DIM4_LONG": (4, 3, 1),
}
#: display labels of the default convention short=sp1xu1 (README)
LABEL = {
    "FULL": "G2/G2",
    "TORUS": "G2/(U(1)xU(1))",
    "DIM4_SHORT": "G2/((Sp(1)xU(1))/Z2)",
    "DIM4_LONG": "G2/((U(1)xSp(1))/Z2)",
}

#: sha256 of the stdout of ``g2orbits <command>``, pinned at the seed commit
DIGESTS = {
    "table": "bb9a019d13de4a48486795879dd1e895f02e843db1adff2629436650ab71f412",
    "roots": "71ac9aed53b3774f511b6e228fdef1ab662b8e7f456a83fbfa15dbef727c0e15",
    "derivations": "d54e65b4408be1e819c9061f028b73467bd9f764804f116d9c66f323bc083a5f",
}

#: check ids printed by ``g2orbits check``; criterion 6 is red by design
CHECK_IDS = ("1", "2", "3", "4", "5", "6", "6b", "7", "8", "9", "10", "11")
RED_BY_DESIGN = "6"
CHECK_EXIT = 3

CSV_HEADER = "tau1,tau2,tau3,stabilizer_dim,orbit_type"


def root_rule(tau) -> str:
    """Orbit type of a traceless triple from the roots that vanish on it.

    The short roots of G2 are the functionals t_i and the long roots the
    differences t_i - t_j, so tau = 0 is FULL, a zero coordinate leaves a
    short pair (DIM4_SHORT), two equal coordinates a long pair (DIM4_LONG),
    and anything else is TORUS.
    """
    t1, t2, t3 = tau
    if t1 == t2 == t3 == 0:
        return "FULL"
    if 0 in (t1, t2, t3):
        return "DIM4_SHORT"
    if t1 == t2 or t2 == t3 or t1 == t3:
        return "DIM4_LONG"
    return "TORUS"


def lattice_ball(radius: int):
    """Zero-sum integer triples with every |t_i| <= radius, in scan order
    (lexicographic in t1, then t2)."""
    for t1 in range(-radius, radius + 1):
        for t2 in range(-radius, radius + 1):
            t3 = -t1 - t2
            if abs(t3) <= radius:
                yield (t1, t2, t3)


def ball_size(radius: int) -> int:
    return 3 * radius * radius + 3 * radius + 1


def census_counts(radius: int) -> dict:
    """Closed-form orbit-type counts of the lattice ball of a radius."""
    counts = {"FULL": 1, "DIM4_SHORT": 6 * radius, "DIM4_LONG": 6 * (radius // 2)}
    counts["TORUS"] = ball_size(radius) - sum(counts.values())
    return counts


def _check_rows(rows, radius: int) -> list:
    """rows: (tau, stabilizer_dim, orbit_type) in output order."""
    problems = []
    expected = list(lattice_ball(radius))
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    counts = dict.fromkeys(STABILIZER_DIM, 0)
    for (tau, dim, orbit_type), want_tau in zip(rows, expected):
        want = root_rule(want_tau)
        if tau != want_tau or orbit_type != want or dim != STABILIZER_DIM[want]:
            problems.append(f"row {tau},{dim},{orbit_type}: expected {want_tau},{STABILIZER_DIM[want]},{want}")
        if orbit_type in counts:
            counts[orbit_type] += 1
    if counts != census_counts(radius):
        problems.append(f"counts {counts} differ from the closed form {census_counts(radius)}")
    return problems


def check_census_csv(text: str, radius: int) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"bad CSV header {lines[:1]}"]
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        try:
            rows.append((tuple(int(f) for f in fields[:3]), int(fields[3]), fields[4]))
        except (ValueError, IndexError):
            return [f"unparsable CSV row {line!r}"]
    return _check_rows(rows, radius)


def check_census_json(text: str, radius: int) -> list:
    try:
        doc = json.loads(text)
        rows = [(tuple(r["tau"]), r["stabilizer_dim"], r["orbit_type"]) for r in doc["census"]]
        header = (doc["radius"], doc["points"], doc["counts"], doc["stabilizer_dims_ok"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable scan JSON: {exc!r}"]
    problems = _check_rows(rows, radius)
    want = (radius, ball_size(radius), census_counts(radius), True)
    if header != want:
        problems.append(f"radius/points/counts/dims_ok {header} != {want}")
    return problems


def check_classify_json(text: str, tau) -> list:
    """``classify --tau ... --json`` against the root rule for tau."""
    tau = tuple(Fraction(t) for t in tau)
    want = root_rule(tau)
    try:
        doc = json.loads(text)
        got = {
            "tau": tuple(Fraction(t) for t in doc["tau"]),
            "stabilizer_dim": doc["stabilizer_dim"],
            "orbit_type": doc["orbit_type"],
            "orbit_label": doc["orbit_label"],
            "fingerprint": tuple(doc["structure"][k] for k in ("dim", "derived_dim", "center_dim")),
            "vanishing": [tuple(r) for r in doc["vanishing_roots"]],
        }
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable classify JSON: {exc!r}"]
    expected = {
        "tau": tau,
        "stabilizer_dim": STABILIZER_DIM[want],
        "orbit_type": want,
        "orbit_label": LABEL[want],
        "fingerprint": FINGERPRINT[want],
    }
    problems = [f"{k} {got[k]} != {v}" for k, v in expected.items() if got[k] != v]
    if len(got["vanishing"]) != VANISHING_COUNT[want]:
        problems.append(f"{len(got['vanishing'])} vanishing roots, expected {VANISHING_COUNT[want]}")
    for coeffs in got["vanishing"]:
        if sum(a * t for a, t in zip(coeffs, tau)) != 0:
            problems.append(f"listed root {coeffs} does not vanish on tau")
    return problems


def check_digest(command: str, text: str) -> list:
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != DIGESTS[command]:
        return [f"{command} stdout digest {digest[:12]} differs from the seed commit's {DIGESTS[command][:12]}"]
    return []


def check_cli(command: str, tau, returncode: int, text: str) -> list:
    """One cold_cli call: exit code 0 and the output its oracle expects."""
    if returncode != 0:
        return [f"{command} exited {returncode}"]
    if command == "classify":
        return check_classify_json(text, tau)
    return check_digest(command, text)


def check_check_output(returncode: int, text: str) -> list:
    """``g2orbits check``: exit 3, every check reported, and criterion 6
    (red by design) the only FAIL."""
    problems = []
    if returncode != CHECK_EXIT:
        problems.append(f"check exited {returncode}, expected {CHECK_EXIT}")
    reported = set()
    for line in text.splitlines():
        status, _, rest = line.partition(" ")
        check_id = rest.split(" ", 1)[0]
        reported.add(check_id)
        if status not in ("PASS", "FAIL"):
            problems.append(f"unexpected line {line!r}")
        elif (status == "FAIL") != (check_id == RED_BY_DESIGN):
            problems.append(f"unexpected verdict: {line[:120]}")
    missing = set(CHECK_IDS) - reported
    if missing:
        problems.append(f"checks {sorted(missing)} not reported")
    return problems


def octonion_norm_sq(coords) -> Fraction:
    return sum(Fraction(c) * c for c in coords)
