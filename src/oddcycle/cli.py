"""Command-line surface.

Exit codes: 0 ok, 1 violation/invalid certificate, 2 input error (a
malformed input, or a path that cannot be read, decoded as UTF-8 or
written), 3 internal inconsistency.
"""

from __future__ import annotations

import ast
import functools
import json
import operator
import sys

import click

from .analysis import (
    _build_colouring,
    _run_method,
    anneal_search,
    experiment_table,
    exhaustive_L,
    rows_to_csv,
)
from .certify import verify_mono_odd_cycle, verify_peel
from .colouring import _decoded, colour_class, read_colouring, write_colouring
from .errors import InputError, InternalInconsistency, ParseError, PipelineAssertError
from .graph import OddCycleCertificate
from .peeling import ShortCycle, peel
from .pipeline import PipelineParams


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InternalInconsistency as exc:
            click.echo(f"internal inconsistency: {exc}", err=True)
            sys.exit(3)
        except PipelineAssertError as exc:
            click.echo(f"assert failed: {exc}", err=True)
            sys.exit(2)
        except (ParseError, InputError, OSError) as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)

    return wrapper


@click.group()
def main():
    """Short monochromatic odd cycles in edge-coloured complete graphs."""


@main.command()
@click.option("--kind", type=click.Choice(["binary", "product", "random"]), required=True)
@click.option("--q", "q", type=int, required=True)
@click.option("--n", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--in2", "in2", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def gen(kind, q, n, seed, in2, out):
    """Generate a colouring file.

    binary: the all-bipartite colouring of K_{2^q}. random: uniform seeded
    colouring of K_n (needs --n, --seed). product: the product of the binary
    colouring of K_{2^q} with the colouring read from --in2.
    """
    other = read_colouring(in2) if kind == "product" and in2 is not None else None
    colouring = _build_colouring(kind, q, n, seed, other)
    write_colouring(colouring, out)
    click.echo(f"wrote {colouring.n}-vertex {colouring.q}-colouring to {out}")


def _write_certificate(result, path):
    cert = result.certificate
    colour = cert.colour if cert.colour is not None else "-"
    with open(path, "w") as fh:
        fh.write(f"cycle {colour} " + " ".join(str(v) for v in cert.vertices) + "\n")


def _read_certificate(path):
    """The certificate on line 1 of ``path``. Only that line is decoded, so
    a byte that is not UTF-8 further on is ignored with the rest."""
    with open(path, "rb") as fh:
        first = fh.readline().split(b"\r", 1)[0]  # a line ends at \n, \r or \r\n
    line = _decoded(lambda: first.decode("utf-8")).strip()
    parts = line.split()
    if len(parts) < 2 or parts[0] != "cycle":
        raise ParseError("certificate must start with 'cycle <colour> <v0> ...'", line=1)
    try:
        colour = None if parts[1] == "-" else int(parts[1])
        verts = tuple(int(tok) for tok in parts[2:])
    except ValueError:
        raise ParseError("certificate fields must be integers", line=1) from None
    return OddCycleCertificate(vertices=verts, colour=colour)


@main.command("find")
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--method", type=click.Choice(["pipeline", "proposition", "oracle"]), required=True)
@click.option("--eps", type=float, default=PipelineParams.eps, show_default=True)
@click.option("--C", "big_c", type=float, default=PipelineParams.C, show_default=True)
@click.option("--delta", type=float, default=None, help="proposition's delta in (0, 1]; 1 if unset")
@click.option("--k-rule", "k_rule", type=str, default=None, help="expression in q, e.g. '8*q**3'")
@click.option("--small-rule", "small_rule", type=str, default=None, help="expression in q, e.g. '4*q**10'")
@click.option("--fallback", type=click.Choice(["oracle", "fail"]), default=PipelineParams.fallback,
              show_default=True)
@click.option("--out-cert", type=click.Path(dir_okay=False), required=True)
@click.option("--trace", type=click.Path(dir_okay=False), required=True)
@_guarded
def find(infile, method, eps, big_c, delta, k_rule, small_rule, fallback, out_cert, trace):
    """Find a monochromatic odd cycle in a colouring file."""
    colouring = read_colouring(infile)
    params = {"eps": eps, "C": big_c, "fallback": fallback}
    if k_rule:
        params["k_of_q"] = _rule(k_rule)
    if small_rule:
        params["small_threshold_of_q"] = _rule(small_rule)
    result = _run_method(colouring, method, params, delta)
    # the trace first: a trace path that cannot be written leaves no certificate
    with open(trace, "w") as fh:
        fh.write(result.trace.to_json_lines())
    _write_certificate(result, out_cert)
    cert = result.certificate
    click.echo(
        f"found colour-{cert.colour} odd cycle of length {cert.length} "
        f"(claimed bound {result.bound_claimed})"
    )


_RULE_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv,
    ast.Pow: operator.pow,
}


def _rule(expr):
    """Integer rule in q, checked when parsed: only integer literals, the name
    q, + - * // **, unary minus and parentheses; never passed to ``eval``."""

    def bad(why):
        return InputError(f"bad rule expression {expr!r}: {why}")

    # a length cap bounds the nesting that parsing and evaluation recurse on
    if len(expr) > 200:
        raise bad("longer than 200 characters")
    try:
        tree = ast.parse(expr, mode="eval").body
    except SyntaxError as exc:
        raise bad(exc.msg) from None
    for node in ast.walk(tree):
        leaf = (isinstance(node, ast.Name) and node.id == "q"
                or isinstance(node, ast.Constant) and type(node.value) is int)
        if not (leaf or isinstance(node, (ast.BinOp, ast.UnaryOp, ast.USub, ast.Load, *_RULE_OPS))):
            raise bad("only integers, q, + - * // ** and parentheses are allowed")

    def value(node, q):
        if isinstance(node, (ast.Name, ast.Constant)):
            return q if isinstance(node, ast.Name) else node.value
        if isinstance(node, ast.UnaryOp):
            return -value(node.operand, q)
        left, right = value(node.left, q), value(node.right, q)
        # bound the result's size up front: q**q**q would not finish. A
        # negative exponent gives no integer (and 0**-1 divides by zero)
        if isinstance(node.op, ast.Pow) and not (right >= 0 and right * left.bit_length() <= 4096):
            raise bad("power out of range")
        if isinstance(node.op, ast.FloorDiv) and right == 0:
            raise bad("division by zero")
        return _RULE_OPS[type(node.op)](left, right)

    return lambda q: value(tree, q)


@main.command()
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--cert", type=click.Path(exists=True, dir_okay=False), required=True)
@_guarded
def verify(infile, cert):
    """Verify a certificate file against a colouring file."""
    colouring = read_colouring(infile)
    certificate = _read_certificate(cert)
    violation = verify_mono_odd_cycle(colouring, certificate)
    if violation is None:
        click.echo("ok")
        return
    click.echo(f"violation: {violation}", err=True)
    sys.exit(1)


@main.command("peel")
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--colour", type=int, required=True)
@click.option("--k", type=int, required=True)
@_guarded
def peel_cmd(infile, colour, k):
    """Peel one colour class and self-check the outcome."""
    colouring = read_colouring(infile)
    g = colour_class(colouring, colour)
    outcome = peel(g, k)
    violation = verify_peel(g, k, outcome)
    if isinstance(outcome, ShortCycle):
        verts = " ".join(str(v) for v in outcome.cycle.vertices)
        click.echo(f"short odd cycle of length {outcome.cycle.length}: {verts}")
    else:
        sizes = sorted((len(c.vertices) for c in outcome.components), reverse=True)
        click.echo(
            f"decomposition: removed {len(outcome.removed)} vertices, "
            f"{len(outcome.components)} components (largest {sizes[0] if sizes else 0})"
        )
    if violation is not None:
        click.echo(f"violation: {violation}", err=True)
        sys.exit(1)


@main.command("lq-exact")
@click.option("--q", "q", type=int, required=True)
@click.option("--n", type=int, required=True)
@_guarded
def lq_exact(q, n):
    """Exact worst-colouring bound for small q, n, by branch and bound."""
    value, witness = exhaustive_L(q, n)
    if value is None:
        click.echo(
            f"L({q},{n}) = none: K_{n} admits a {q}-colouring with every "
            "colour class bipartite"
        )
    else:
        click.echo(f"L({q},{n}) = {value}")
    counts = [colour_class(witness, i).edge_count() for i in range(q)]
    click.echo(f"witness colour class sizes: {counts}")


@main.command()
@click.option("--q", "q", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--iters", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def search(q, n, iters, seed, out):
    """Simulated-annealing search for colourings with long shortest cycles."""
    objective, best = anneal_search(q, n, iters, seed)
    write_colouring(best, out)
    if objective == n + 1:
        click.echo(f"objective {objective} (no monochromatic odd cycle); wrote {out}")
    else:
        click.echo(f"objective {objective}; wrote {out}")


@main.command()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def table(config, out):
    """Run an experiment grid from a JSON config and write CSV."""
    try:
        with open(config) as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # not UTF-8 or not JSON, or an int past Python's digit limit
        raise ParseError(f"config is not JSON: {exc}") from None
    rows = experiment_table(cfg)
    with open(out, "w") as fh:
        fh.write(rows_to_csv(rows))
    click.echo(f"wrote {len(rows)} rows to {out}")


if __name__ == "__main__":
    main()
