"""Tests of the benchmark itself: inputs, oracles, statistics and failure
counting.  They never start the package, so they run in a few seconds.

    python -m pytest bench/test_bench.py -q
"""

import itertools
import json
import sys
from fractions import Fraction

import gen
import oracle
import probe
import run
import spans
import tally


def _calls(seed, n=21):
    return [(cmd, argv) for cmd, argv, _ in itertools.islice(gen.cli_calls(seed), n)]


def test_same_seed_same_inputs_and_another_seed_changes_them():
    assert _calls(7) == _calls(7)
    assert gen.census_radii(7) == gen.census_radii(7)
    assert _calls(7) != _calls(8)
    assert [gen.census_radii(s) for s in range(1, 6)] != [gen.census_radii(s) for s in range(6, 11)]


def test_cli_blocks_keep_fixed_shares():
    calls = list(itertools.islice(gen.cli_calls(3), gen.BLOCK * 4))
    for block in range(4):
        part = calls[gen.BLOCK * block: gen.BLOCK * (block + 1)]
        assert sorted(cmd for cmd, _, _ in part) == sorted(
            gen.FIXED_COMMANDS + ("classify",) * (gen.BLOCK - len(gen.FIXED_COMMANDS)))
        types = sorted(oracle.root_rule(tau) for _, _, tau in part if tau is not None)
        assert types == sorted(gen.ORBIT_TYPES * gen.CLASSIFY_PER_TYPE)


def test_classify_inputs_are_rescaled_weyl_images():
    rng = gen.stream("test", 1)
    for orbit_type in gen.ORBIT_TYPES * 5:
        tau = gen.classify_tau(rng, orbit_type)
        assert sum(tau) == 0
        assert oracle.root_rule(tau) == orbit_type
        if orbit_type != "FULL":
            assert max(Fraction(t).denominator for t in tau) > 1000


def test_closed_form_counts_match_the_root_rule():
    for radius in range(1, 13):
        counts = dict.fromkeys(oracle.STABILIZER_DIM, 0)
        for tau in oracle.lattice_ball(radius):
            counts[oracle.root_rule(tau)] += 1
        assert counts == oracle.census_counts(radius)


def _census_csv(radius):
    rows = [oracle.CSV_HEADER]
    for tau in oracle.lattice_ball(radius):
        t = oracle.root_rule(tau)
        rows.append("%d,%d,%d,%d,%s" % (*tau, oracle.STABILIZER_DIM[t], t))
    return "\n".join(rows) + "\n"


def _census_json(radius):
    entries = []
    for tau in oracle.lattice_ball(radius):
        t = oracle.root_rule(tau)
        entries.append({"tau": list(tau), "stabilizer_dim": oracle.STABILIZER_DIM[t], "orbit_type": t})
    return json.dumps({"radius": radius, "points": len(entries), "counts": oracle.census_counts(radius),
                       "stabilizer_dims_ok": True, "census": entries}, indent=2)


def test_corrupted_census_row_fails():
    good = _census_csv(3)
    assert oracle.check_census_csv(good, 3) == []
    bad = good.replace("1,0,-1,4,DIM4_SHORT", "1,0,-1,2,TORUS")
    assert bad != good and oracle.check_census_csv(bad, 3)
    assert oracle.check_census_csv(good.replace("\n0,0,0,14,FULL", ""), 3)

    doc = json.loads(_census_json(3))
    assert oracle.check_census_json(json.dumps(doc), 3) == []
    doc["census"][5]["orbit_type"] = "FULL"
    assert oracle.check_census_json(json.dumps(doc), 3)


def _classify_doc(tau, orbit_type, fingerprint=None):
    return json.dumps({
        "tau": [str(Fraction(t)) for t in tau],
        "stabilizer_dim": oracle.STABILIZER_DIM[orbit_type],
        "orbit_type": orbit_type,
        "orbit_label": oracle.LABEL[orbit_type],
        "vanishing_roots": [[0, 1, 0], [1, 0, 1]],
        "structure": dict(zip(("dim", "derived_dim", "center_dim"),
                              fingerprint or oracle.FINGERPRINT[orbit_type])),
        "convention": "short=sp1xu1",
    })


def test_classify_fingerprints():
    tau = (1, 0, -1)
    assert oracle.check_classify_json(_classify_doc(tau, "DIM4_SHORT"), tau) == []
    assert oracle.check_classify_json(_classify_doc(tau, "DIM4_SHORT", (4, 4, 0)), tau)
    assert oracle.check_classify_json(_classify_doc(tau, "DIM4_LONG"), tau)


def test_failures_raise_failed_ratio():
    r = run.Run("census", 1, 1, trace=False)
    r.judge("scan", oracle.check_census_csv(_census_csv(2), 2))
    r.judge("scan", oracle.check_census_csv(_census_csv(2).replace("FULL", "TORUS"), 2))
    r.judge("table", oracle.check_cli("table", None, 0, "a changed table\n"))
    assert (r.attempted, len(r.failures)) == (3, 2)


def test_refused_or_crashed_call_counts_as_failed():
    r = run.Run("cold_cli", 1, 1, trace=False)
    refused = run.run_child([sys.executable, "-c", "import sys; sys.exit(2)"])
    r.judge("refused", oracle.check_cli("classify", (1, 0, -1), refused.returncode, refused.stdout))
    crashed = run.run_child([sys.executable, "-c", "raise RuntimeError('crash')"])
    r.judge("crashed", oracle.check_cli("roots", None, crashed.returncode, crashed.stdout))
    _, res = r.probe("no-such-mode")
    r.judge("probe", res["problems"])
    assert res["failed"]
    assert (r.attempted, len(r.failures)) == (3, 3)


def test_check_output_oracle():
    lines = [f"PASS {i} something: ok" for i in oracle.CHECK_IDS if i != "6"]
    lines.insert(5, "FAIL 6 involution shadows: red by design")
    good = "\n".join(lines) + "\n"
    assert oracle.check_check_output(3, good) == []
    assert oracle.check_check_output(0, good)
    assert oracle.check_check_output(3, good.replace("PASS 9", "FAIL 9"))
    assert oracle.check_check_output(3, good.replace("FAIL 6", "PASS 6"))
    assert oracle.check_check_output(3, good.replace("PASS 11 something: ok\n", ""))


def test_tail_rule_picks_the_highest_percentile_with_ten_beyond():
    xs = list(range(1, 101))
    assert tally.tail(xs) == (90, 90.0, 100)
    assert tally.tail(xs[:50]) == (40, 80.0, 50)
    assert tally.tail(xs[:20]) == (10, 50.0, 20)
    assert tally.tail(xs[:19]) == (10, 50.0, 19)
    assert tally.tail([3.0]) == (3.0, 50.0, 1)


def test_self_time_subtracts_covered_child_time():
    def span(sid, name, parent, start, end):
        return {"id": sid, "name": name, "op": 1, "parent": parent, "tag": None, "start": start, "end": end}

    trace = [span("a", "op.cli", None, 0.0, 10.0),
             span("b", "cli.import", "a", 2.0, 5.0),
             span("c", "derivations.derivation_basis", "a", 4.0, 8.0)]
    assert spans.self_times(trace) == {"a": 4.0, "b": 3.0, "c": 4.0}
    assert spans.layer_self_times(trace) == {"op": 4.0, "cli": 3.0, "derivations": 4.0}


def test_count_calls_sees_every_call_inside_the_callee():
    def leaf(x):
        return x

    def outer(n):
        return [leaf(leaf(i)) for i in range(n)]

    assert probe._count_calls(leaf, outer, 5) == 10
    assert sys.getprofile() is None


def test_host_factor_scales_to_the_median_reference():
    r = run.Run("verify", 1, 1, trace=False)
    r.reference()
    r.reference()  # within CALIBRATE_EVERY_S of the first: not run again
    assert len(r.references) == 1 and r.references[0] > 0
    r.references = [0.2, 0.8, 0.4]
    assert r.host_factor() == run.REFERENCE_S / 0.4
