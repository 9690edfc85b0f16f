"""The benchmark's checks accept the program's answers and reject wrong ones.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest

import checks
import exact
import gen
import ops
from checks import CheckFailed


def _ctx_and_ops(workload, seed=5):
    job = gen.generate(workload, seed)
    ctx = {}
    for fx in job["fixtures"]:
        ops.build_fixture(ctx, fx)
    return ctx, job["ops"]


def _run(ctx, op):
    call, check = ops.prepare(ctx, op)
    result = call()
    return result, check


def _first(op_list, kind):
    return next(op for op in op_list if op["kind"] == kind)


def test_same_seed_same_job_and_every_seed_same_shape():
    for workload in gen.WORKLOADS:
        a, b, c = gen.generate(workload, 3), gen.generate(workload, 3), gen.generate(workload, 4)
        assert a == b
        assert [op["kind"] for op in a["ops"]] == [op["kind"] for op in c["ops"]]
        assert sum(1 for op in a["ops"] if op.get("known_fault")) == sum(1 for op in c["ops"] if op.get("known_fault"))
        assert len(a["ops"]) >= 100


def test_polyhedra_cutoff_list_passes_every_check():
    ctx, op_list = _ctx_and_ops("polyhedra-cutoff")
    for op in op_list:
        result, check = _run(ctx, op)
        check(result)


def test_altered_bar_is_rejected():
    ctx, op_list = _ctx_and_ops("persistence")
    op = next(op for op in op_list if op["kind"] == "reduce" and "expect" in op)
    result, check = _run(ctx, op)
    check(result)
    wrong = copy.deepcopy(op)
    birth, death, degree, mult = wrong["expect"][0]
    wrong["expect"][0] = [birth, exact.s(exact.fr(death) + 1) if death != "inf" else "99", degree, mult]
    with pytest.raises(CheckFailed):
        ops.prepare(ctx, wrong)[1](result)


def test_random_presentation_checks_reject_a_dropped_bar():
    ctx, op_list = _ctx_and_ops("persistence")
    op = next(op for op in op_list if op["kind"] == "reduce" and op.get("bridge"))
    result, check = _run(ctx, op)
    check(result)
    bars = [(b.interval.left, b.interval.right, 0, b.multiplicity) for b in result.bars]
    with pytest.raises(CheckFailed):
        checks.barcode(bars[1:], bars)
    fewer = type(result)(result.bars[1:])
    with pytest.raises(CheckFailed):
        check(fewer)


def test_independent_degrees_sees_the_field():
    rels = [(Fraction(1), {0: 1, 1: 1}), (Fraction(2), {0: 1, 1: -1}), (Fraction(3), {0: 2, 1: 2})]
    assert exact.independent_degrees(rels) == [Fraction(1), Fraction(2)]
    assert exact.independent_degrees(rels, 2) == [Fraction(1)]
    assert exact.independent_degrees(rels, 3) == [Fraction(1), Fraction(2)]


def test_dependent_presentation_check_rejects_the_other_fields_barcode():
    ctx, op_list = _ctx_and_ops("persistence")
    block = [op for op in op_list if op["kind"] == "reduce" and op["pres"].startswith("dep-")]
    for key in dict.fromkeys(op["pres"] for op in block):
        q_op, f2_op = (next(op for op in block if op["pres"] == key and op["field"] == f) for f in ("q", "f2"))
        q_bars, q_check = _run(ctx, q_op)
        f2_bars, f2_check = _run(ctx, f2_op)
        q_check(q_bars)
        f2_check(f2_bars)
        if exact.k0_of_bars([(b.interval.left, b.interval.right, 0, 1) for b in q_bars.bars]) != \
                exact.k0_of_bars([(b.interval.left, b.interval.right, 0, 1) for b in f2_bars.bars]):
            with pytest.raises(CheckFailed):
                q_check(f2_bars)
            return
    pytest.fail("no dependent presentation has a field-dependent barcode")


def test_altered_offset_is_rejected():
    ctx, op_list = _ctx_and_ops("polyhedra-cutoff")
    op = _first(op_list, "poly_build")
    poly, check = _run(ctx, op)
    check(poly)
    (normal, offset), *rest = [(tuple(n), d) for n, d in poly.constraints]
    with pytest.raises(CheckFailed):
        checks.constraints([(normal, offset + Fraction(1, 2))] + rest, [(tuple(n), d) for n, d in poly.constraints])
    wrong = copy.deepcopy(op)
    wrong["expect"][0][1] = exact.s(exact.fr(wrong["expect"][0][1]) + 1)
    with pytest.raises(CheckFailed):
        ops.prepare(ctx, wrong)[1](poly)


def test_altered_face_count_is_rejected():
    ctx, op_list = _ctx_and_ops("toric-atlas")
    op = next(op for op in op_list if op["kind"] == "faces" and op["expect"] == 8)
    faces, check = _run(ctx, op)
    check(faces)
    with pytest.raises(CheckFailed):
        check(faces[:-1])
    assert len(faces) == 2 ** 3


def test_altered_distance_is_rejected():
    ctx, op_list = _ctx_and_ops("persistence")
    op = _first(op_list, "distance")
    d, check = _run(ctx, op)
    check(d)
    with pytest.raises(CheckFailed):
        check(d + Fraction(1, 4))


def test_wrong_separating_vector_is_rejected():
    ctx, op_list = _ctx_and_ops("toric-atlas")
    op = _first(op_list, "separate")
    m, check = _run(ctx, op)
    check(m)
    with pytest.raises(CheckFailed):
        check(tuple(-x for x in m))


def test_wrong_witness_and_k0_are_rejected():
    ctx, op_list = _ctx_and_ops("polyhedra-cutoff")
    op = _first(op_list, "witness")
    a, check = _run(ctx, op)
    check(a)
    with pytest.raises(CheckFailed):
        check(tuple(x - 100 for x in a))
    ctx, op_list = _ctx_and_ops("persistence")
    op = _first(op_list, "k0")
    k, check = _run(ctx, op)
    check(k)
    with pytest.raises(CheckFailed):
        check(k + k)


def test_rees_bridge_rejects_a_wrong_dimension():
    bars = [(Fraction(0), Fraction(2), 0, 1), (Fraction(1), exact.INF, 0, 2)]
    checks.rees_bridge([Fraction(0), Fraction(1), Fraction(2)], [1, 3, 2], bars)
    with pytest.raises(CheckFailed):
        checks.rees_bridge([Fraction(0), Fraction(1), Fraction(2)], [1, 3, 3], bars)


TRACEBACK = 'Traceback (most recent call last):\n  File "x", line 1\nValueError: 4 is not prime\n'


def _no_file(name):
    raise AssertionError("no file expected")


def test_cli_output_with_a_traceback_is_rejected():
    spec = {"exit": 0, "json": {"ok": True}}
    checks.cli_result(spec, 0, '{"ok": true}', "", _no_file)
    with pytest.raises(CheckFailed):
        checks.cli_result(spec, 0, '{"ok": true}', TRACEBACK, _no_file)
    with pytest.raises(CheckFailed):
        checks.cli_result(spec, 0, '{"ok": false}', "", _no_file)


def test_malformed_input_passes_only_with_a_structured_error():
    spec = {"exit": "nonzero"}
    checks.cli_result(spec, 1, json.dumps({"error": {"code": "bad-input", "message": "f4"}}), "", _no_file)
    checks.cli_result(spec, 2, "", "usage: aptkit ...\naptkit: error: bad field\n", _no_file)
    for returncode, stdout, stderr in [(1, "", TRACEBACK), (1, "oops", ""), (0, "{}", "")]:
        with pytest.raises(CheckFailed):
            checks.cli_result(spec, returncode, stdout, stderr, _no_file)


def test_cli_post_checks_reject_wrong_values():
    ctx, op_list = _ctx_and_ops("cli")
    by_post = {}
    for op in op_list:
        for kind in op["expect"].get("post", {}):
            by_post.setdefault(kind, op)
    assert {"bars", "polyhedron", "signs", "k0", "k0_product", "witness", "count"} <= set(by_post)
    bars_op = by_post["bars"]
    good = gen.barcode_json(bars_op["expect"]["post"]["bars"])
    for b in good["bars"]:
        b.update(birth_closed=True, death_closed=False)
    checks.cli_result(bars_op["expect"], 0, json.dumps(good), "", _no_file)
    good["bars"][0]["death"] = "1000"
    with pytest.raises(CheckFailed):
        checks.cli_result(bars_op["expect"], 0, json.dumps(good), "", _no_file)
    count_op = by_post["count"]
    n = count_op["expect"]["post"]["value"]
    checks.cli_result(count_op["expect"], 0, json.dumps({"faces": [{}] * n}), "", _no_file)
    with pytest.raises(CheckFailed):
        checks.cli_result(count_op["expect"], 0, json.dumps({"faces": [{}] * (n + 1)}), "", _no_file)


def test_scaling_cancels_a_slowdown_that_the_reference_sees():
    import run

    quiet = [0.001, 0.004, 0.002, 0.010]
    ref = run.REFERENCE_S
    slow = {"latency_s": [2 * t for t in quiet], "reference_s": [2 * ref] * 4,
            "setup_s": 0.3, "setup_reference_s": [1.5 * ref] * 10}
    assert run.scaled_latencies(slow) == pytest.approx(quiet)
    assert run.scaled_setup(slow) == pytest.approx(0.2)
