"""Work the benchmark runs inside a fresh interpreter.

Run from the repository root with ``PYTHONPATH=src``::

    python bench/probe.py setup
    python bench/probe.py scan FORMAT SMALL LARGE [--trace OP PARENT]
    python bench/probe.py cli [--trace OP PARENT] -- ARGV...
    python bench/probe.py check [--trace OP PARENT]
    python bench/probe.py layers SEED --trace OP PARENT

Each mode prints one JSON object as the last line of stdout.  Layers are
timed only around the probe's own calls into each module's public
functions; nothing inside the package is traced.  Modules the package
imports itself are imported here only after it, so that set-up times the
package's own import.
"""

import sys
import time

import spans


def _import_package(rec):
    with rec.span("cli.import"):
        import g2orbits.cli
    return g2orbits.cli


def _setup(rec):
    """Import, derivation basis and roots: what every fresh process pays."""
    cli = _import_package(rec)
    from g2orbits import derivation_basis, root_system

    with rec.span("derivations.derivation_basis"):
        b = derivation_basis()
    with rec.span("roots.root_system"):
        roots = root_system()
    return cli, b, roots


def _captured(cli, argv):
    """Run ``g2orbits.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _count_calls(target, fn, *args) -> int:
    """How often ``fn(*args)`` calls the Python function ``target``,
    observed with a profile hook rather than by editing the package."""
    code, calls = target.__code__, [0]

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls[0]


def mode_setup(rec, args):
    with rec.span("bench.setup") as whole:
        _cli, b, roots = _setup(rec)
    problems = []
    if b.dim != 14 or len(roots) != 12:
        problems.append(f"basis dim {b.dim}, {len(roots)} roots; expected 14 and 12")
    return {"setup_s": whole["end"] - whole["start"], "problems": problems}


def mode_scan(rec, args):
    """Set up, then ``scan`` both radii in one format, checking every output."""
    fmt, radii = args[0], [int(a) for a in args[1:3]]
    with rec.span("bench.setup") as whole:
        cli, _b, _roots = _setup(rec)
    import oracle

    check = {"csv": oracle.check_census_csv, "json": oracle.check_census_json}[fmt]
    scans, problems = [], []
    for radius in radii:
        with rec.span("command.scan", tag=f"{radius}/{fmt}") as span:
            code, text = _captured(cli, ["scan", "--radius", str(radius), "--format", fmt])
        if code != 0:
            problems.append(f"scan --radius {radius} --format {fmt} exited {code}")
        problems += check(text, radius)
        scans.append({"radius": radius, "points": oracle.ball_size(radius),
                      "seconds": span["end"] - span["start"]})
    return {"setup_s": whole["end"] - whole["start"], "scans": scans, "problems": problems}


def mode_cli(rec, args):
    """One CLI call in-process: the traced form of ``python -m g2orbits ARGV``."""
    argv = args[args.index("--") + 1:] if "--" in args else args
    cli = _import_package(rec)
    with rec.span(f"command.{argv[0]}"):
        code, text = _captured(cli, argv)
    return {"exit": code, "stdout": text}


def mode_check(rec, args):
    """``g2orbits check`` in-process, one span per check between its lines."""
    _import_package(rec)
    from g2orbits.checks import run_all

    lines = []
    last = [time.perf_counter()]

    def out(line):
        now = time.perf_counter()
        check_id = line.split(" ", 2)[1]
        rec.add(f"checks.{check_id}", last[0], now)
        last[0] = now
        lines.append(line)

    ok = run_all(out=out)
    return {"exit": 0 if ok else 3, "stdout": "".join(line + "\n" for line in lines)}


def mode_layers(rec, args):
    """Each layer's public functions, one call at a time, on seeded inputs."""
    cli = _import_package(rec)
    from g2orbits import cayley, derivations, linalg, orbits, roots

    import itertools
    import json
    import statistics
    from fractions import Fraction

    import gen
    import oracle

    seed = int(args[0])
    problems = []
    for _ in range(3):
        with rec.span("derivations.leibniz_system"):
            system = derivations.leibniz_system()
        with rec.span("linalg.kernel_basis.leibniz"):
            kern = linalg.kernel_basis(system)
        if len(kern) != 14:
            problems.append(f"Leibniz kernel has dimension {len(kern)}")
    with rec.span("derivations.derivation_basis"):
        b = derivations.derivation_basis()
    with rec.span("derivations.killing_gram"):
        b.killing_gram()
    with rec.span("roots.root_system"):
        root_list = roots.root_system()

    # stage by stage over the small ball, against scan's own rows
    small, large = gen.census_radii(seed)
    with rec.span("command.scan", tag=f"{small}/csv"):
        code, csv_text = _captured(cli, ["scan", "--radius", str(small), "--format", "csv"])
    if code != 0:
        problems.append(f"scan --radius {small} exited {code}")
    problems += oracle.check_census_csv(csv_text, small)
    scan_rows = csv_text.splitlines()[1:]
    taus = list(oracle.lattice_ball(small))
    taus += [(0, 0, 0)] * 2  # the ball holds one FULL point; two more samples
    for i, tau in enumerate(taus):
        with rec.span("roots.vanishing_roots"):
            van = roots.vanishing_roots(tau)
        with rec.span("derivations.adjoint_matrix"):
            ad = derivations.adjoint_matrix(roots.cartan_element(tau), b)
        with rec.span("linalg.kernel_basis.ad14"):
            kern = linalg.kernel_basis(ad)
        dim = len(kern)
        lengths = {r.length_class for r in van}
        staged = {14: "FULL", 2: "TORUS"}.get(dim) or ("DIM4_SHORT" if lengths == {"short"} else "DIM4_LONG")
        with rec.span("orbits.centralizer", tag=staged):
            cent = orbits.centralizer(tau)
        with rec.span("derivations.subalgebra_structure", tag=staged):
            derivations.subalgebra_structure(cent, b)
        with rec.span("orbits.classify", tag=staged):
            report = orbits.classify(tau)
        row = "%d,%d,%d,%d,%s" % (*tau, dim, staged)
        if i < len(scan_rows) and row != scan_rows[i]:
            problems.append(f"stage by stage {row!r} != scan row {scan_rows[i]!r}")
        if report.orbit_type.value != staged or len(cent) != dim:
            problems.append(f"classify {tau} gives {report.orbit_type.value}, stages give {staged}")

    # the two renderings scan prints
    with rec.span("orbits.scan"):
        census = orbits.scan(small)
    kernel_calls = _count_calls(linalg.kernel_basis, orbits.scan, small)
    with rec.span("cli.render"):
        json.dumps(census.to_json_dict(), indent=2)
        rendered = "\n".join(census.csv_rows()) + "\n"
    if rendered != csv_text:
        problems.append("rendered census differs from scan's CSV")

    # how much centralizer work the large ball repeats
    vanishing_sets = set()
    points = 0
    for tau in oracle.lattice_ball(large):
        with rec.span("roots.vanishing_roots"):
            van = roots.vanishing_roots(tau)
        vanishing_sets.add(tuple(r.coeffs for r in van))
        points += 1

    rng = gen.stream("layers", seed)
    for orbit_type in itertools.islice(itertools.cycle(gen.ORBIT_TYPES), 20):
        tau = gen.classify_tau(rng, orbit_type)
        for r in root_list:
            with rec.span("roots.weyl_reflect"):
                image = roots.weyl_reflect(r, tau)
            if sorted(image.tau) not in (sorted(tau), sorted(-t for t in tau)):
                problems.append(f"reflection of {tau} in {r.coeffs} is not a signed permutation")

    for sigma in (cayley.gamma_matrix(), cayley.gamma1_matrix()):
        with rec.span("derivations.fixed_subalgebra"):
            fixed = derivations.fixed_subalgebra(sigma, b)
        if len(fixed) != 6:
            problems.append(f"fixed subalgebra of an involution has dimension {len(fixed)}, not 6")

    def octonion():
        return cayley.Octonion([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])

    for _ in range(300):
        x, y = octonion(), octonion()
        with rec.span("cayley.octonion_mul"):
            xy = x * y
        cx, cy = cayley.to_complex_model(x), cayley.to_complex_model(y)
        with rec.span("cayley.complex_mul"):
            cx * cy
        if oracle.octonion_norm_sq(xy.coords) != oracle.octonion_norm_sq(x.coords) * oracle.octonion_norm_sq(y.coords):
            problems.append("octonion product breaks the composition law")

    def med(name, tag=None, scale=1.0):
        ds = [s["end"] - s["start"] for s in rec.spans if s["name"] == name and (tag is None or s["tag"] == tag)]
        return statistics.median(ds) * scale

    metrics = {
        "cli.render_s": med("cli.render"),
        "derivations.leibniz_system_s": med("derivations.leibniz_system"),
        "derivations.derivation_basis_s": med("derivations.derivation_basis"),
        "derivations.killing_gram_s": med("derivations.killing_gram"),
        "derivations.fixed_subalgebra_s": med("derivations.fixed_subalgebra"),
        "linalg.kernel_basis.leibniz_s": med("linalg.kernel_basis.leibniz"),
        "linalg.kernel_basis.ad14_ms": med("linalg.kernel_basis.ad14", scale=1e3),
        "linalg.kernel_basis.calls": kernel_calls,
        "roots.root_system_s": med("roots.root_system"),
        "roots.vanishing_roots_us": med("roots.vanishing_roots", scale=1e6),
        "roots.weyl_reflect_us": med("roots.weyl_reflect", scale=1e6),
        "orbits.distinct_vanishing_per_point": len(vanishing_sets) / points,
        "orbits.points_scanned": points,
        "cayley.octonion_mul_us": med("cayley.octonion_mul", scale=1e6),
        "cayley.complex_mul_us": med("cayley.complex_mul", scale=1e6),
    }
    for t in gen.ORBIT_TYPES:
        metrics[f"orbits.classify_ms.{t}"] = med("orbits.classify", t, 1e3)
        metrics[f"orbits.centralizer_ms.{t}"] = med("orbits.centralizer", t, 1e3)
        metrics[f"derivations.subalgebra_structure_ms.{t}"] = med("derivations.subalgebra_structure", t, 1e3)
    return {"metrics": metrics, "radii": [small, large], "problems": problems}


MODES = {"setup": mode_setup, "scan": mode_scan, "cli": mode_cli, "check": mode_check, "layers": mode_layers}


def main(argv) -> int:
    import json
    import os

    mode, args = argv[0], argv[1:]
    cut = args.index("--") if "--" in args else len(args)
    head, rest = args[:cut], args[cut:]
    op = parent = None
    if "--trace" in head:
        i = head.index("--trace")
        op, parent = int(head[i + 1]), head[i + 2]
        del head[i:i + 3]
    args = head + rest
    rec = spans.Recorder(op=op, parent=parent, keep=op is not None)
    result = MODES[mode](rec, args)
    import g2orbits

    result["package"] = os.path.dirname(os.path.abspath(g2orbits.__file__))
    result["spans"] = rec.spans
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
