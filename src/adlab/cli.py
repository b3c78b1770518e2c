"""Command-line interface.

One subcommand per operation family; sets are given either as a path to a
set file (with an ``@ambient`` header) or as an inline comma-separated
integer list, with ``--mod N`` switching the inline form to residues.
``--json`` prints canonical JSON (sorted keys, exact rationals as
"num/den" strings) so repeated runs are byte-comparable.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from fractions import Fraction
from typing import Optional

from .budget import WorkMeter
from .decompose import bsg_asymmetric, dec_tk, ratio_box, sidon_extract
from .dissociation import cube, dim_bounds, is_k_dissociated, span_k
from .energy import additive_energy, t_k
from .errors import AdlabError, BudgetExceededError
from .groundset import (
    GroundSet,
    integers,
    iterated_sumset,
    load_set,
    format_set,
    residues,
    save_set,
)
from .harness import generate, run_core_suite, spec as make_spec
from .harness.runner import report_to_json
from .modular import fourier_max, subgroup_growth_experiment, verify_dirichlet_dim
from .records import stable_dumps

OP_NAMES = {"add": "+", "mul": "*"}


def _parse_set(text: str, mod: Optional[int]) -> GroundSet:
    if os.path.exists(text):
        return load_set(text)
    try:
        items = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError:
        raise AdlabError(
            f"{text!r} is neither a file nor a comma-separated integer list"
        ) from None
    if not items:
        raise AdlabError("empty set literal")
    if mod is not None:
        return residues(items, mod)
    return integers(items)


def _emit(args, payload, human: list[str]) -> None:
    if args.json:
        print(stable_dumps(payload))
    else:
        for line in human:
            print(line)


# Flags shared by several subcommands; each subcommand takes only those it
# reads, plus --json.
_SHARED_FLAGS = {
    "k": dict(type=int, default=1, help="dissociation / energy order"),
    "op": dict(choices=("add", "mul"), default="add", help="group operation"),
    "budget": dict(type=int, default=None, help="search state budget"),
    "cap": dict(type=int, default=None, help="size cap for enumerated sets"),
    "mod": dict(type=int, default=None, help="treat inline sets as residues mod N"),
}


def _command(sub, name: str, summary: str, *flags: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    p.add_argument("--json", action="store_true", help="print canonical JSON")
    for flag in flags:
        p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
    return p


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="adlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = _command(sub, "verify", "run a claim suite", "budget")
    p.add_argument("--suite", default="core", help="suite name (core)")
    p.add_argument("--out", default=None, help="write the JSON report to this path")

    p = _command(sub, "dim", "additive dimension bounds", "k", "budget", "mod")
    p.add_argument("set", help="set file or inline list")

    p = _command(sub, "energy", "higher energy T_k", "k", "op", "cap", "mod")
    p.set_defaults(k=2)
    p.add_argument("set")

    p = _command(sub, "sumset", "iterated sumset nA - mA", "cap", "mod")
    p.add_argument("set")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=0)

    p = _command(sub, "span", "k-span of a set", "k", "cap", "mod")
    p.add_argument("set")

    p = _command(sub, "cube", "subset-sum cube of a set", "mod")
    p.add_argument("set")

    p = _command(sub, "subgroup", "multiplicative subgroup experiment", "budget")
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--t", type=int, required=True, help="subgroup order (divides p-1)")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--kmax", type=int, default=3)

    p = _command(sub, "dirichlet", "Dirichlet-minimum dimension bound", "k", "budget", "mod")
    p.add_argument("set")
    p.add_argument("--s", type=int, default=2, help="number of quotient slots")
    p.add_argument("--modulus", type=int, default=None, help="reduction modulus for integer sets")

    p = _command(sub, "fourier", "largest nontrivial Fourier coefficient", "mod")
    p.add_argument("set")

    p = _command(sub, "decompose", "additive/multiplicative split", "budget", "mod")
    p.add_argument("set")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--bigk", default=None, help="threshold parameter K as int or num/den")

    p = _command(sub, "bsg", "structured core extraction", "budget", "mod")
    p.add_argument("seta")
    p.add_argument("setb")
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--bigk", default=None, help="energy parameter K as int or num/den")

    p = _command(sub, "sidon", "largest B_h[1] subset up to 20 elements, a maximal one past that", "op", "budget", "mod")
    p.add_argument("set")
    p.add_argument("--h", type=int, default=2)

    p = _command(sub, "ratiobox", "ratio box of the difference set", "mod")
    p.add_argument("set")

    p = _command(sub, "gen", "emit a generated instance as a set file")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized generators")
    p.add_argument("generator", help="generator name (e.g. interval, subgroup)")
    p.add_argument("params", nargs="*", help="name=value pairs (tuples in Python syntax)")
    p.add_argument("--out", default=None, help="write the set file here instead of stdout")

    return top


def _parse_fraction(text: Optional[str]):
    if text is None:
        return None
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _cmd_verify(args) -> int:
    if args.suite != "core":
        raise AdlabError(f"unknown suite {args.suite!r}; available: core")
    report = run_core_suite(budget=args.budget)
    text = report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json or not args.out:
        print(text)
    else:
        s = report["summary"]
        print(
            f"suite {report['name']}: {s['records']} records over "
            f"{s['instances']} instances, {s['hard_violations']} hard violations, "
            f"{s['skipped']} skipped"
        )
    return 2 if report["summary"]["hard_violations"] else 0


def _cmd_dim(args) -> int:
    a = _parse_set(args.set, args.mod)
    meter = WorkMeter(args.budget)
    db = dim_bounds(a, args.k, budget=meter)
    payload = {"bounds": db}
    human = [
        f"dim_{args.k}: "
        + (f"{db.lower} (exact)" if db.exact else f"in [{db.lower}, {db.upper}]")
    ]
    if db.lower_witness is not None:
        human.append(f"witness: {sorted(db.lower_witness.elements)}")
    if len(a) <= 24:
        # The whole-set certificate spends what the dimension search left.
        try:
            cert = is_k_dissociated(a, args.k, budget=meter)
        except BudgetExceededError as exc:
            payload["certificate"] = None
            payload["note"] = f"whole-set certificate not reached: {exc}"
            human.append(f"note: {payload['note']}")
        else:
            payload["certificate"] = cert
            human.append(f"whole set: {cert.verdict}")
    _emit(args, payload, human)
    return 0


def _cmd_energy(args) -> int:
    a = _parse_set(args.set, args.mod)
    val = t_k(a, args.k, op=OP_NAMES[args.op], size_cap=args.cap)
    payload = {"energy": val}
    human = [f"T_{args.k}^{val.operation}(A) = {val.value}"]
    if args.op == "add" and args.k == 2:
        e = additive_energy(a, a).value
        human.append(f"E(A,A) = {e}")
        payload["e_symmetric"] = e
    _emit(args, payload, human)
    return 0


def _cmd_sumset(args) -> int:
    a = _parse_set(args.set, args.mod)
    out = iterated_sumset(a, args.n, args.m, size_cap=args.cap)
    payload = {"n": args.n, "m": args.m, "size": len(out)}
    human = [f"|{args.n}A - {args.m}A| = {len(out)}"]
    if len(out) <= 64:
        payload["elements"] = list(out.elements)
        human.append(f"elements: {sorted(out.elements)}")
    _emit(args, payload, human)
    return 0


def _cmd_span(args) -> int:
    a = _parse_set(args.set, args.mod)
    sp = span_k(a, args.k, size_cap=args.cap)
    payload = {"k": args.k, "size": len(sp)}
    human = [f"|Span_{args.k}(S)| = {len(sp)}"]
    if len(sp) <= 128:
        payload["elements"] = list(sp.elements)
        human.append(f"elements: {sorted(sp.elements)}")
    _emit(args, payload, human)
    return 0


def _cmd_cube(args) -> int:
    a = _parse_set(args.set, args.mod)
    q, proper = cube(a)
    payload = {"size": len(q), "proper": proper}
    human = [f"|Q(L)| = {len(q)} ({'proper' if proper else 'improper'})"]
    if len(q) <= 128:
        payload["elements"] = list(q.elements)
        human.append(f"elements: {sorted(q.elements)}")
    _emit(args, payload, human)
    return 0


def _cmd_subgroup(args) -> int:
    rep = subgroup_growth_experiment(
        args.p, args.t, n_max=args.nmax, k_max=args.kmax, budget=args.budget
    )
    m = rep.measured
    human = [
        f"Gamma(p={args.p}, t={args.t}): curve {m['curve']}",
        f"dim in [{m['dim_lower']}, {m['dim_upper']}], regime {m['regime']}",
        f"energies: {m['energies']}",
        f"half-cover n: {m['half_cover_n']}, coverage {m['coverage_fraction']}",
    ]
    _emit(args, rep, human)
    return 0


def _cmd_dirichlet(args) -> int:
    a = _parse_set(args.set, args.mod)
    rep = verify_dirichlet_dim(
        a, s=args.s, modulus=args.modulus, k=args.k, budget=args.budget
    )
    dv = rep.measured["dirichlet"]
    human = [
        f"Dirichlet minimum (s={args.s}, N={rep.measured['modulus']}): {dv.value}",
        f"dim lower bound used: {rep.measured['dim_lower']}",
    ]
    for r in rep.records:
        if r.claim == "dirichlet_dim_lower" and "rhs" in r.measured:
            human.append(
                f"bound: dim {r.measured['d']} >= {r.measured['rhs']:.4f} "
                f"({'violated' if r.violated else 'holds'})"
            )
    _emit(args, rep, human)
    return 0


def _cmd_fourier(args) -> int:
    a = _parse_set(args.set, args.mod)
    peak = fourier_max(a)
    human = [
        f"max |A^(r)| over r != 0: {peak.max_abs:.6f} at r = {peak.argmax} "
        f"(N = {peak.modulus}, |A| = {peak.size})"
    ]
    _emit(args, peak, human)
    return 0


def _cmd_decompose(args) -> int:
    a = _parse_set(args.set, args.mod)
    dec = dec_tk(
        a,
        s=args.s,
        q=args.q,
        big_k=_parse_fraction(args.bigk),
        budget=args.budget,
    )
    human = [
        f"B ({len(dec.b)} elements): {sorted(dec.b.elements)}",
        f"C ({len(dec.c)} elements): {sorted(dec.c.elements)}",
        f"peels: {dec.energies['peels']}, threshold {dec.threshold}",
        f"T_{dec.s}^*(C) = {dec.energies['t_s_mult_c']}, "
        f"T_{dec.q}^+(B) = {dec.energies['t_q_add_b']}",
    ]
    for flag in dec.flags:
        human.append(f"note: {flag}")
    _emit(args, dec, human)
    return 0


def _cmd_bsg(args) -> int:
    a = _parse_set(args.seta, args.mod)
    b = _parse_set(args.setb, args.mod)
    kk = _parse_fraction(args.bigk)
    if kk is None:
        e = additive_energy(a, b).value
        if e == 0:
            raise AdlabError("E(A,B) = 0; no structured core exists")
        kk = Fraction(2 * len(a) * len(b) ** 2, e)
    res = bsg_asymmetric(a, b, kk, l=args.l, budget=args.budget)
    human = [
        f"H ({len(res.h)} elements): {sorted(res.h.elements)}",
        f"shift x = {res.x}",
        f"doubling |H+H|/|H| = {res.stats['doubling']}",
        f"intersection |B cap (H+x)| = {res.stats['intersection']}",
    ]
    _emit(args, res, human)
    return 0


def _cmd_sidon(args) -> int:
    a = _parse_set(args.set, args.mod)
    out = sidon_extract(a, h=args.h, op=OP_NAMES[args.op], budget=args.budget)
    payload = {"h": args.h, "op": OP_NAMES[args.op], "size": len(out), "elements": list(out.elements)}
    human = [f"B_{args.h}[1] subset ({OP_NAMES[args.op]}): {sorted(out.elements)}"]
    _emit(args, payload, human)
    return 0


def _cmd_ratiobox(args) -> int:
    a = _parse_set(args.set, args.mod)
    rb = ratio_box(a)
    human = [f"ratio box n = {rb.n} (first missing: {rb.missing}, ratios: {rb.ratio_count})"]
    _emit(args, rb, human)
    return 0


def _cmd_gen(args) -> int:
    params = {}
    for pair in args.params:
        if "=" not in pair:
            raise AdlabError(f"parameter {pair!r} is not name=value")
        name, raw = pair.split("=", 1)
        try:
            params[name] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            raise AdlabError(f"cannot parse parameter value {raw!r}") from None
    instance = make_spec(args.generator, seed=args.seed, **params)
    ground = generate(instance)
    if args.out:
        save_set(ground, args.out)
        print(f"{instance.label}: {len(ground)} elements -> {args.out}")
    elif args.json:
        print(stable_dumps({"instance": instance, "elements": ground}))
    else:
        print(format_set(ground), end="")
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "dim": _cmd_dim,
    "energy": _cmd_energy,
    "sumset": _cmd_sumset,
    "span": _cmd_span,
    "cube": _cmd_cube,
    "subgroup": _cmd_subgroup,
    "dirichlet": _cmd_dirichlet,
    "fourier": _cmd_fourier,
    "decompose": _cmd_decompose,
    "bsg": _cmd_bsg,
    "sidon": _cmd_sidon,
    "ratiobox": _cmd_ratiobox,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (AdlabError, ValueError) as exc:
        # The library rejects a bad argument value with ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
