"""Named identity checks, shared by the CLI runner and the test suite.

Every check draws its randomness from a generator derived from
(seed, check name), so execution order never changes results.  A check
returns one or more CheckResult records; the residual reported is the
worst sample.  Identity strings name the mathematical statement being
verified and appear verbatim in the README table.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import algebroid as albr
from . import bott as bt
from . import forms as fm
from . import fusion as fu
from . import lifting as lf
from . import qham as qh
from .liealg import cubic_polynomial, make_group, quadratic_polynomial
from .sections import (AlgebroidSection, BumpFunction, TimeGrid, extend,
                       integrate_01, loop_section, random_loop_section,
                       random_section, random_twisted_loop, time_derivative)

__all__ = ["CheckResult", "CheckContext", "REGISTRY", "SUITES",
           "run_checks", "list_checks", "result_keys"]

SUITES = ("algebroid", "forms", "lifting", "bott", "fusion", "courant", "qham")


@dataclass
class CheckResult:
    suite: str
    name: str
    identity: str
    params: dict
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    runtime_ms: float = 0.0
    notes: str = ""

    def __post_init__(self):
        self.passed = bool(self.residual <= self.tolerance)


class CheckContext:
    """Execution context: group, grids, steps, per-check RNG and tolerances."""

    def __init__(self, group_name, config):
        self.group_name = group_name
        self.algebra = make_group(group_name)
        self.config = config
        self.grid = TimeGrid(config.get("n_points", 201))
        self.coarse_grid = TimeGrid(min(101, config.get("n_points", 201)))
        self.h = config.get("fd_step", 1e-4)
        self.h_t = config.get("t_step", 1e-5)
        self.samples = config.get("samples", 4)
        self.seed = config.get("seed", 42)
        self.tol_overrides = config.get("tol_overrides", {})
        self.bump = BumpFunction()

    def rng(self, name):
        key = zlib.crc32(name.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(key,)))

    def tolerance(self, suite, name, default):
        return float(self.tol_overrides.get(f"{suite}.{name}", default))

    def conventions(self):
        return bt.calibrate_conventions()

    def abelian(self):
        return self.group_name == "torus2"

    def random_sections(self, rng, count):
        return [random_section(self.algebra, rng, bump=self.bump)
                for _ in range(count)]


class CheckSpec:
    def __init__(self, name, suite, fn, groups=None, identity="", sub_results=()):
        self.name = name
        self.suite = suite
        self.fn = fn
        self.groups = groups          # None means every catalog group
        self.identity = identity
        self.sub_results = sub_results  # further result names the check reports

    def applicable(self, group):
        return self.groups is None or group in self.groups


REGISTRY = []


def _register(name, suite, groups=None, identity="", sub_results=()):
    def wrap(fn):
        REGISTRY.append(CheckSpec(name, suite, fn, groups=groups, identity=identity,
                                  sub_results=sub_results))
        return fn
    return wrap


def _result(ctx, spec_name, suite, identity, residual, tol, params=None, notes=""):
    return CheckResult(suite, spec_name, identity,
                       params or {"group": ctx.group_name},
                       float(residual), float(tol), notes=notes)


# ---------------------------------------------------------------------------
# algebroid suite
# ---------------------------------------------------------------------------

@_register("structure_jacobi", "algebroid",
           identity="[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 (structure constants)")
def check_structure_jacobi(ctx):
    c = ctx.algebra.c
    jac = (np.einsum("ijm,mkl->ijkl", c, c)
           + np.einsum("jkm,mil->ijkl", c, c)
           + np.einsum("kim,mjl->ijkl", c, c))
    tol = ctx.tolerance("algebroid", "structure_jacobi", 1e-12)
    return [_result(ctx, "structure_jacobi", "algebroid",
                    "[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 (structure constants)",
                    np.max(np.abs(jac)), tol)]


@_register("bilinear_invariance", "algebroid",
           identity="B(Ad_g x, Ad_g y) = B(x, y)")
def check_bilinear_invariance(ctx):
    rng = ctx.rng("bilinear_invariance")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        x, y = alg.random_vector(rng), alg.random_vector(rng)
        worst = max(worst, abs(alg.pairing(alg.Ad(g, x), alg.Ad(g, y))
                               - alg.pairing(x, y)))
    tol = ctx.tolerance("algebroid", "bilinear_invariance", 1e-10)
    return [_result(ctx, "bilinear_invariance", "algebroid",
                    "B(Ad_g x, Ad_g y) = B(x, y)", worst, tol)]


@_register("ad_homomorphism", "algebroid", identity="Ad_{gh} = Ad_g Ad_h")
def check_ad_homomorphism(ctx):
    rng = ctx.rng("ad_homomorphism")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g, h = alg.random_group(rng), alg.random_group(rng)
        x = alg.random_vector(rng)
        worst = max(worst, np.linalg.norm(alg.Ad(g @ h, x)
                                          - alg.Ad(g, alg.Ad(h, x))))
    tol = ctx.tolerance("algebroid", "ad_homomorphism", 1e-10)
    return [_result(ctx, "ad_homomorphism", "algebroid",
                    "Ad_{gh} = Ad_g Ad_h", worst, tol)]


@_register("dirderiv_oracle", "algebroid",
           identity="D_v(g -> Ad_g c) = [v, Ad_g c]")
def check_dirderiv(ctx):
    rng = ctx.rng("dirderiv_oracle")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        c, v = alg.random_vector(rng), alg.random_vector(rng)
        got = alg.directional(lambda gg: alg.Ad(gg, c), g, v, h=ctx.h)
        want = alg.bracket(v, alg.Ad(g, c))
        scale = max(1.0, np.linalg.norm(want))
        worst = max(worst, np.linalg.norm(got - want) / scale)
    tol = ctx.tolerance("algebroid", "dirderiv_oracle", 1e-7)
    return [_result(ctx, "dirderiv_oracle", "algebroid",
                    "D_v(g -> Ad_g c) = [v, Ad_g c]", worst, tol)]


@_register("extend_cocycle", "algebroid",
           identity="xi(t+1) = Ad_g xi(t) + v_xi for all real t")
def check_extend_cocycle(ctx):
    rng = ctx.rng("extend_cocycle")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        sec = random_section(alg, rng, bump=ctx.bump)
        for t in (-1.4, -0.3, 0.25, 0.8, 1.6, 2.3):
            lhs = extend(sec, g, t + 1.0)
            rhs = alg.Ad(g, extend(sec, g, t)) + sec.v(g)
            worst = max(worst, np.linalg.norm(lhs - rhs))
    tol = ctx.tolerance("algebroid", "extend_cocycle", 1e-10)
    return [_result(ctx, "extend_cocycle", "algebroid",
                    "xi(t+1) = Ad_g xi(t) + v_xi for all real t", worst, tol)]


@_register("template_compatibility", "algebroid",
           identity="template sections satisfy the seam exactly")
def check_template_compat(ctx):
    rng = ctx.rng("template_compatibility")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        worst = max(worst, random_section(alg, rng, bump=ctx.bump)
                    .compatibility_residual(g))
    tol = ctx.tolerance("algebroid", "template_compatibility", 1e-12)
    return [_result(ctx, "template_compatibility", "algebroid",
                    "template sections satisfy the seam exactly", worst, tol)]


@_register("simpson_order", "algebroid",
           identity="composite Simpson converges at fourth order")
def check_simpson_order(ctx):
    f = lambda t: np.exp(t) * np.sin(3.0 * t)
    exact = integrate_01(f, TimeGrid(1601))
    e1 = abs(integrate_01(f, TimeGrid(11)) - exact)
    e2 = abs(integrate_01(f, TimeGrid(21)) - exact)
    ratio = e1 / e2
    tol = ctx.tolerance("algebroid", "simpson_order", 0.0)
    return [_result(ctx, "simpson_order", "algebroid",
                    "composite Simpson converges at fourth order",
                    max(0.0, 12.0 - ratio), tol, notes=f"halving ratio {ratio:.1f}")]


@_register("bracket_jacobi", "algebroid",
           identity="[[xi,zeta],chi] + cyclic = 0")
def check_bracket_jacobi(ctx):
    rng = ctx.rng("bracket_jacobi")
    alg = ctx.algebra
    worst = 0.0
    n_triples = max(ctx.samples, 8)
    for _ in range(n_triples):
        g = alg.random_group(rng)
        a, b, c = ctx.random_sections(rng, 3)
        t0 = rng.uniform(0.15, 0.85)
        total = albr.bracket(albr.bracket(a, b, h=ctx.h), c, h=ctx.h).profile(g, t0)
        total = total + albr.bracket(albr.bracket(b, c, h=ctx.h), a, h=ctx.h).profile(g, t0)
        total = total + albr.bracket(albr.bracket(c, a, h=ctx.h), b, h=ctx.h).profile(g, t0)
        worst = max(worst, np.linalg.norm(total))
    tol = ctx.tolerance("algebroid", "bracket_jacobi", 1e-5)
    return [_result(ctx, "bracket_jacobi", "algebroid",
                    "[[xi,zeta],chi] + cyclic = 0", worst, tol,
                    params={"group": ctx.group_name, "triples": n_triples})]


@_register("bracket_leibniz", "algebroid",
           identity="[xi, h zeta] = h [xi,zeta] + (a(xi) h) zeta")
def check_bracket_leibniz(ctx):
    rng = ctx.rng("bracket_leibniz")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(ctx.samples, 8)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        c0 = alg.random_vector(rng)

        def hfun(gg):
            return float(np.sin(alg.pairing(c0, alg.Ad(gg, c0))))

        hz = AlgebroidSection(
            alg, lambda gg, t: hfun(gg) * ze.profile(gg, t),
            lambda gg: hfun(gg) * ze.v(gg),
            dprofile=lambda gg, t: hfun(gg) * ze.dprofile(gg, t))
        t0 = rng.uniform(0.15, 0.85)
        lhs = albr.bracket(xi, hz, h=ctx.h).profile(g, t0)
        dh = alg.directional(lambda gg: np.array(hfun(gg)), g, xi.v(g), h=ctx.h)
        rhs = hfun(g) * albr.bracket(xi, ze, h=ctx.h).profile(g, t0) \
            + float(dh) * ze.profile(g, t0)
        worst = max(worst, np.linalg.norm(lhs - rhs))
    tol = ctx.tolerance("algebroid", "bracket_leibniz", 1e-6)
    return [_result(ctx, "bracket_leibniz", "algebroid",
                    "[xi, h zeta] = h [xi,zeta] + (a(xi) h) zeta", worst, tol)]


@_register("anchor_morphism", "algebroid",
           identity="a([xi,zeta]) = [a(xi), a(zeta)] as vector fields")
def check_anchor_morphism(ctx):
    rng = ctx.rng("anchor_morphism")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        got = albr.bracket(xi, ze, h=ctx.h).v(g)
        want = -alg.bracket(xi.v(g), ze.v(g))
        want = want + alg.directional(ze.v, g, xi.v(g), h=ctx.h)
        want = want - alg.directional(xi.v, g, ze.v(g), h=ctx.h)
        worst = max(worst, np.linalg.norm(got - want))
    tol = ctx.tolerance("algebroid", "anchor_morphism", 1e-6)
    return [_result(ctx, "anchor_morphism", "algebroid",
                    "a([xi,zeta]) = [a(xi), a(zeta)] as vector fields", worst, tol)]


@_register("generator_action", "algebroid",
           identity="[x_A, xi] = d/du (exp(ux).xi) at u = 0")
def check_generator_action(ctx):
    rng = ctx.rng("generator_action")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        x = alg.random_vector(rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        t0 = rng.uniform(0.1, 0.9)
        got = albr.bracket(albr.generator(alg, x), xi, h=ctx.h).profile(g, t0)

        def action(u):
            k = alg.exp(u * x)
            kinv = alg.inv(k)
            return alg.Ad(k, xi.profile(kinv @ g @ k, t0))

        h = ctx.h
        want = (8 * (action(h) - action(-h)) - (action(2 * h) - action(-2 * h))) / (12 * h)
        worst = max(worst, np.linalg.norm(got - want))
    tol = ctx.tolerance("algebroid", "generator_action", 1e-6)
    return [_result(ctx, "generator_action", "algebroid",
                    "[x_A, xi] = d/du (exp(ux).xi) at u = 0", worst, tol)]


def _invariant_family(ctx, rng):
    coeffs = rng.uniform(-0.5, 0.5, size=3)
    alpha0 = albr.invariant_alpha0(ctx.algebra, coeffs)
    return albr.build_alpha(ctx.algebra, alpha0=alpha0, bump=ctx.bump, invariant=True)


@_register("alpha_gauge_periodicity", "algebroid",
           identity="alpha_{t+1} = Ad_g alpha_t - theta^R")
def check_alpha_gauge(ctx):
    rng = ctx.rng("alpha_gauge_periodicity")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        v = alg.random_vector(rng)
        alpha = _invariant_family(ctx, rng)
        for t in (-0.4, 0.3, 1.2):
            worst = max(worst, alpha.gauge_residual(t, g, v))
        k = alg.random_group(rng)
        worst = max(worst, alpha.equivariance_residual(0.37, g, v, k))
    tol = ctx.tolerance("algebroid", "alpha_gauge_periodicity", 1e-10)
    return [_result(ctx, "alpha_gauge_periodicity", "algebroid",
                    "alpha_{t+1} = Ad_g alpha_t - theta^R", worst, tol)]


@_register("curvature_gauge_covariance", "algebroid",
           identity="F^{alpha_{t+1}} = Ad_g F^{alpha_t}")
def check_curvature_covariance(ctx):
    rng = ctx.rng("curvature_gauge_covariance")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        v, w = alg.random_vector(rng), alg.random_vector(rng)
        alpha = _invariant_family(ctx, rng)
        t = 0.04  # flat region of the bump, matched across the seam
        f0 = albr.curvature(alpha, g, t, v, w, h=ctx.h)
        f1 = albr.curvature(alpha, g, t + 1.0, v, w, h=ctx.h)
        worst = max(worst, np.linalg.norm(f1 - alg.Ad(g, f0)))
    tol = ctx.tolerance("algebroid", "curvature_gauge_covariance", 1e-6)
    return [_result(ctx, "curvature_gauge_covariance", "algebroid",
                    "F^{alpha_{t+1}} = Ad_g F^{alpha_t}", worst, tol)]


@_register("connection_vertical", "algebroid",
           identity="theta(xi) = xi + alpha(a(xi)) lies in the loop bundle")
def check_connection_vertical(ctx):
    rng = ctx.rng("connection_vertical")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        alpha = _invariant_family(ctx, rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        vert = albr.connection_apply(alpha, xi)
        worst = max(worst, vert.compatibility_residual(g))
        worst = max(worst, np.linalg.norm(vert.v(g)))
    tol = ctx.tolerance("algebroid", "connection_vertical", 1e-8)
    return [_result(ctx, "connection_vertical", "algebroid",
                    "theta(xi) = xi + alpha(a(xi)) lies in the loop bundle",
                    worst, tol)]


@_register("psi_seam", "algebroid",
           identity="Psi(x) = -x + alpha(a(x_A)) is a loop-bundle section")
def check_psi_seam(ctx):
    rng = ctx.rng("psi_seam")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        alpha = _invariant_family(ctx, rng)
        x = alg.random_vector(rng)
        for t in (0.0, 0.33, 0.8):
            lhs = albr.generator_vertical_part(alpha, x, g, t + 1.0)
            rhs = alg.Ad(g, albr.generator_vertical_part(alpha, x, g, t))
            worst = max(worst, np.linalg.norm(lhs - rhs))
        worst = max(worst, np.linalg.norm(
            albr.generator_vertical_part(alpha, x, alg.identity(), 0.5) + x))
    tol = ctx.tolerance("algebroid", "psi_seam", 1e-8)
    return [_result(ctx, "psi_seam", "algebroid",
                    "Psi(x) = -x + alpha(a(x_A)) is a loop-bundle section",
                    worst, tol)]


@_register("kappa_seam", "algebroid",
           identity="kappa_{t+1} = Ad_g kappa_t - a* theta^R")
def check_kappa_seam(ctx):
    rng = ctx.rng("kappa_seam")
    alg = ctx.algebra
    kf = albr.KappaFamily(alg)
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        for t in (-0.3, 0.3, 1.4):
            lhs = kf.value(t + 1.0, g, xi)
            rhs = alg.Ad(g, kf.value(t, g, xi)) - xi.v(g)
            worst = max(worst, np.linalg.norm(lhs - rhs))
        x = alg.random_vector(rng)
        worst = max(worst, np.linalg.norm(
            kf.value(0.4, g, albr.generator(alg, x)) - x))
    tol = ctx.tolerance("algebroid", "kappa_seam", 1e-10)
    return [_result(ctx, "kappa_seam", "algebroid",
                    "kappa_{t+1} = Ad_g kappa_t - a* theta^R", worst, tol)]


@_register("kappa_flat", "algebroid",
           identity="F^kappa = 0 and F_G^kappa(x) + x = 0")
def check_kappa_flat(ctx):
    rng = ctx.rng("kappa_flat")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        t0 = rng.uniform(0.1, 0.9)
        kap = fm.AlgebroidForm(alg, 1, lambda gg, s: albr.kappa_value(s, gg, t0),
                               scalar=False)
        dk = fm.exterior_derivative(kap, h=ctx.h)
        fval = dk(g, xi, ze) + alg.bracket(albr.kappa_value(xi, g, t0),
                                           albr.kappa_value(ze, g, t0))
        worst = max(worst, np.linalg.norm(fval))
        x = alg.random_vector(rng)
        xa = albr.generator(alg, x)
        fg = -kap(g, xa)  # F_G - part: F = 0, so F_G(x) = -iota_{x_A} kappa
        worst = max(worst, np.linalg.norm(fg + x))
    tol = ctx.tolerance("algebroid", "kappa_flat", 1e-6)
    return [_result(ctx, "kappa_flat", "algebroid",
                    "F^kappa = 0 and F_G^kappa(x) + x = 0", worst, tol)]


# ---------------------------------------------------------------------------
# forms suite
# ---------------------------------------------------------------------------

def _random_one_form(ctx, rng):
    alg = ctx.algebra
    c1, c2 = alg.random_vector(rng), alg.random_vector(rng)
    return fm.DeRhamForm(alg, 1,
                         lambda g, v: alg.pairing(c1 + alg.Ad(g, c2), v))


@_register("d_squared", "forms", identity="d(d phi) = 0")
def check_d_squared(ctx):
    rng = ctx.rng("d_squared")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        c = alg.random_vector(rng)
        t0 = rng.uniform(0.1, 0.9)
        # 0-form
        zero_form = fm.AlgebroidForm(alg, 0, lambda gg: alg.pairing(c, alg.Ad(gg, c)))
        dd0 = fm.exterior_derivative(fm.exterior_derivative(zero_form, h=ctx.h), h=ctx.h)
        worst = max(worst, abs(dd0(g, secs[0], secs[1])))
        # 1-form built on the tautological family
        one = fm.AlgebroidForm(alg, 1,
                               lambda gg, s: alg.pairing(c, albr.kappa_value(s, gg, t0)))
        dd1 = fm.exterior_derivative(fm.exterior_derivative(one, h=ctx.h), h=ctx.h)
        worst = max(worst, abs(dd1(g, *secs)))
    tol = ctx.tolerance("forms", "d_squared", 1e-4)
    return [_result(ctx, "d_squared", "forms", "d(d phi) = 0", worst, tol)]


@_register("cartan_commutation", "forms",
           identity="i_zeta L_xi = L_xi i_zeta - i_{[xi,zeta]}")
def check_cartan_commutation(ctx):
    rng = ctx.rng("cartan_commutation")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        c = alg.random_vector(rng)
        phi = fm.AlgebroidForm(alg, 1,
                               lambda gg, s: alg.pairing(c, albr.kappa_value(s, gg, 0.3)))
        lhs = fm.contract(fm.lie_derivative(phi, xi, h=ctx.h), ze)(g)
        rhs = fm.lie_derivative(fm.contract(phi, ze), xi, h=ctx.h)(g) \
            - phi(g, albr.bracket(xi, ze, h=ctx.h))
        worst = max(worst, abs(lhs - rhs))
    tol = ctx.tolerance("forms", "cartan_commutation", 1e-5)
    return [_result(ctx, "cartan_commutation", "forms",
                    "i_zeta L_xi = L_xi i_zeta - i_{[xi,zeta]}", worst, tol)]


@_register("horizontal_basic", "forms",
           identity="i_zeta phi = 0 and L_zeta phi = 0 for basic phi, zeta in L")
def check_horizontal_basic(ctx):
    rng = ctx.rng("horizontal_basic")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        om = _random_one_form(ctx, rng)
        aom = fm.pullback_anchor(om)
        loop = random_twisted_loop(alg, rng, bump=ctx.bump)
        chi = random_section(alg, rng, bump=ctx.bump)
        worst = max(worst, abs(aom(g, loop)))
        worst = max(worst, abs(fm.lie_derivative(aom, loop, h=ctx.h)(g, chi)))
    tol = ctx.tolerance("forms", "horizontal_basic", 1e-5)
    return [_result(ctx, "horizontal_basic", "forms",
                    "i_zeta phi = 0 and L_zeta phi = 0 for basic phi, zeta in L",
                    worst, tol)]


@_register("anchor_cochain", "forms", identity="d(a* omega) = a*(d omega)")
def check_anchor_cochain(ctx):
    rng = ctx.rng("anchor_cochain")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        om = _random_one_form(ctx, rng)
        secs = ctx.random_sections(rng, 2)
        lhs = fm.exterior_derivative(fm.pullback_anchor(om), h=ctx.h)(g, *secs)
        rhs = fm.pullback_anchor(fm.de_rham_differential(om, h=ctx.h))(g, *secs)
        worst = max(worst, abs(lhs - rhs))
    tol = ctx.tolerance("forms", "anchor_cochain", 1e-5)
    return [_result(ctx, "anchor_cochain", "forms",
                    "d(a* omega) = a*(d omega)", worst, tol)]


@_register("eta_value", "forms",
           identity="eta(e1,e2,e3) = (1/2) B(e1,[e2,e3]) at every g")
def check_eta_value(ctx):
    rng = ctx.rng("eta_value")
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    if alg.dim < 3:
        return [_result(ctx, "eta_value", "forms",
                        "eta(e1,e2,e3) = (1/2) B(e1,[e2,e3]) at every g",
                        0.0, 1e-12, notes="dim < 3: eta vanishes identically")]
    e = np.eye(alg.dim)
    want = 0.5 * alg.pairing(e[0], alg.bracket(e[1], e[2]))
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        worst = max(worst, abs(eta(g, e[0], e[1], e[2]) - want))
    tol = ctx.tolerance("forms", "eta_value", 1e-12)
    notes = f"reference value {want:g}"
    return [_result(ctx, "eta_value", "forms",
                    "eta(e1,e2,e3) = (1/2) B(e1,[e2,e3]) at every g",
                    worst, tol, notes=notes)]


@_register("eta_equivariant_closed", "forms",
           identity="d_G eta_G = 0 (2-form and 0-form components)")
def check_eta_g_closed(ctx):
    rng = ctx.rng("eta_equivariant_closed")
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    worst = 0.0
    flipped_also = True
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        x = alg.random_vector(rng)
        parts = fm.equivariant_cartan(alg, x)
        xg = alg.Ad(g, x) - x
        v, w = alg.random_vector(rng), alg.random_vector(rng)
        d1 = fm.de_rham_differential(parts[1], h=ctx.h)
        resid2 = -eta(g, xg, v, w) + d1(g, v, w)
        resid0 = parts[1](g, xg)
        worst = max(worst, abs(resid2), abs(resid0))
        flip = eta(g, xg, v, w) + d1(g, v, w)
        if abs(flip) > 1e-5:
            flipped_also = False
    tol = ctx.tolerance("forms", "eta_equivariant_closed", 1e-5)
    notes = "flipped insertion sign also closed (degenerate data)" if flipped_also else ""
    return [_result(ctx, "eta_equivariant_closed", "forms",
                    "d_G eta_G = 0 (2-form and 0-form components)",
                    worst, tol, notes=notes)]


@_register("dkappa_identity", "forms",
           identity="d kappa_t(xi, zeta) = -[xi_t, zeta_t]")
def check_dkappa(ctx):
    rng = ctx.rng("dkappa_identity")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        t0 = rng.uniform(0.1, 0.9)
        kap = fm.AlgebroidForm(alg, 1, lambda gg, s: albr.kappa_value(s, gg, t0),
                               scalar=False)
        got = fm.exterior_derivative(kap, h=ctx.h)(g, xi, ze)
        want = -alg.bracket(extend(xi, g, t0), extend(ze, g, t0))
        worst = max(worst, np.linalg.norm(got - want))
    tol = ctx.tolerance("forms", "dkappa_identity", 1e-6)
    return [_result(ctx, "dkappa_identity", "forms",
                    "d kappa_t(xi, zeta) = -[xi_t, zeta_t]", worst, tol)]


# ---------------------------------------------------------------------------
# lifting suite
# ---------------------------------------------------------------------------

@_register("sigma_value", "lifting",
           identity="sigma(sin(2 pi t) e1, cos(2 pi t) e1) = -pi")
def check_sigma_value(ctx):
    alg = ctx.algebra
    e1 = np.zeros(alg.dim); e1[0] = 1.0
    two_pi = 2.0 * np.pi
    s1 = loop_section(alg, lambda t: np.sin(two_pi * t) * e1,
                      lambda t: two_pi * np.cos(two_pi * t) * e1)
    s2 = loop_section(alg, lambda t: np.cos(two_pi * t) * e1,
                      lambda t: -two_pi * np.sin(two_pi * t) * e1)
    val = lf.central_cocycle(s1, s2, alg.identity(), ctx.grid, h_t=ctx.h_t)
    scale = alg.pairing(e1, e1)
    tol = ctx.tolerance("lifting", "sigma_value", 1e-7)
    return [_result(ctx, "sigma_value", "lifting",
                    "sigma(sin(2 pi t) e1, cos(2 pi t) e1) = -pi",
                    abs(val + np.pi * scale), tol)]


@_register("sigma_antisymmetry", "lifting",
           identity="sigma(x1,x2) + sigma(x2,x1) = -[x1 . x2] boundary = 0")
def check_sigma_antisym(ctx):
    rng = ctx.rng("sigma_antisymmetry")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.5)
        z1 = random_twisted_loop(alg, rng, bump=ctx.bump)
        z2 = random_twisted_loop(alg, rng, bump=ctx.bump)
        s = lf.central_cocycle(z1, z2, g, ctx.grid, h_t=ctx.h_t) \
            + lf.central_cocycle(z2, z1, g, ctx.grid, h_t=ctx.h_t)
        worst = max(worst, abs(s))
    tol = ctx.tolerance("lifting", "sigma_antisymmetry", 1e-8)
    return [_result(ctx, "sigma_antisymmetry", "lifting",
                    "sigma(x1,x2) + sigma(x2,x1) = -[x1 . x2] boundary = 0",
                    worst, tol)]


@_register("dsigma_dj", "lifting",
           identity="(d sigma)(x1,x2) = <dj, [x1,x2]_L>")
def check_dsigma(ctx):
    rng = ctx.rng("dsigma_dj")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.5)
        z1 = random_twisted_loop(alg, rng, bump=ctx.bump)
        z2 = random_twisted_loop(alg, rng, bump=ctx.bump)
        ch = random_section(alg, rng, bump=ctx.bump)
        # i_chi (d sigma)(x1,x2): derivative term minus structure terms
        drift = alg.directional(
            lambda gg: np.array(lf.central_cocycle(z1, z2, gg, ctx.coarse_grid,
                                                   h_t=ctx.h_t)),
            g, ch.v(g), h=ctx.h)
        b1 = albr.bracket(ch, z1, h=ctx.h)
        b2 = albr.bracket(ch, z2, h=ctx.h)
        lhs = float(drift) \
            - lf.central_cocycle(b1, z2, g, ctx.coarse_grid, h_t=ctx.h_t) \
            - lf.central_cocycle(z1, b2, g, ctx.coarse_grid, h_t=ctx.h_t)
        pointwise = AlgebroidSection(
            alg, lambda gg, t: -alg.bracket(z1.profile(gg, t), z2.profile(gg, t)),
            lambda gg: np.zeros(alg.dim))
        rhs = integrate_01(
            lambda t: alg.pairing(time_derivative(ch, g, t, h_t=ctx.h_t),
                                  pointwise.profile(g, t)), ctx.coarse_grid)
        worst = max(worst, abs(lhs - rhs))
    tol = ctx.tolerance("lifting", "dsigma_dj", 1e-5)
    return [_result(ctx, "dsigma_dj", "lifting",
                    "(d sigma)(x1,x2) = <dj, [x1,x2]_L>", worst, tol)]


@_register("dthetaj_routes", "lifting",
           identity="<d^theta j, zeta> = -int alpha'.zeta = <dj,zeta> + sigma(theta,zeta)")
def check_dthetaj(ctx):
    rng = ctx.rng("dthetaj_routes")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.5)
        alpha = _invariant_family(ctx, rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        ze = random_twisted_loop(alg, rng, bump=ctx.bump)
        r1 = lf.dtheta_j(alpha, g, xi.v(g), ze, ctx.grid)
        r2 = lf.dtheta_j_definitional(alpha, xi, ze, g, ctx.grid, h_t=ctx.h_t)
        worst = max(worst, abs(r1 - r2))
    tol = ctx.tolerance("lifting", "dthetaj_routes", 1e-5)
    return [_result(ctx, "dthetaj_routes", "lifting",
                    "<d^theta j, zeta> = -int alpha'.zeta = <dj,zeta> + sigma(theta,zeta)",
                    worst, tol)]


@_register("lhat_bracket", "lifting",
           identity="[j x1, j x2] = (j[x1,x2]_L, -sigma(x1,x2)) and Jacobi")
def check_lhat(ctx):
    rng = ctx.rng("lhat_bracket")
    alg = ctx.algebra
    worst_scalar = 0.0
    worst_jac = 0.0
    g = alg.random_group(rng, scale=0.5)
    loops = [random_twisted_loop(alg, rng, bump=ctx.bump) for _ in range(3)]
    exts = [lf.ExtendedLSection.split(z) for z in loops]
    br = lf.bracket_lhat(exts[0], exts[1], ctx.coarse_grid, h_t=ctx.h_t)
    worst_scalar = abs(br.scalar(g)
                       + lf.central_cocycle(loops[0], loops[1], g,
                                            ctx.coarse_grid, h_t=ctx.h_t))
    # Jacobi of the extended bracket: scalar part of the cyclic sum
    total = 0.0
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = lf.bracket_lhat(exts[i], exts[j], ctx.coarse_grid, h_t=ctx.h_t)
        outer = lf.bracket_lhat(inner, exts[k], ctx.coarse_grid, h_t=ctx.h_t)
        total += outer.scalar(g)
    worst_jac = abs(total)
    t0 = rng.uniform(0.2, 0.8)
    body_total = np.zeros(alg.dim)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = lf.bracket_lhat(exts[i], exts[j], ctx.coarse_grid, h_t=ctx.h_t)
        outer = lf.bracket_lhat(inner, exts[k], ctx.coarse_grid, h_t=ctx.h_t)
        body_total = body_total + outer.body.profile(g, t0)
    worst_jac = max(worst_jac, np.linalg.norm(body_total))
    tol = ctx.tolerance("lifting", "lhat_bracket", 1e-6)
    return [_result(ctx, "lhat_bracket", "lifting",
                    "[j x1, j x2] = (j[x1,x2]_L, -sigma(x1,x2)) and Jacobi",
                    max(worst_scalar, worst_jac), tol)]


@_register("nablahat_flat", "lifting",
           identity="nabla_hat is flat: [nabla_1, nabla_2] = nabla_{[1,2]}")
def check_nablahat_flat(ctx):
    rng = ctx.rng("nablahat_flat")
    alg = ctx.algebra
    g = alg.random_group(rng, scale=0.5)
    xi, ze = ctx.random_sections(rng, 2)
    body = random_twisted_loop(alg, rng, bump=ctx.bump)
    b = lf.ExtendedLSection(body, lambda gg: float(np.sin(gg[0, -1])))
    n12 = lf.nabla_hat(xi, lf.nabla_hat(ze, b, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t),
                       ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
    n21 = lf.nabla_hat(ze, lf.nabla_hat(xi, b, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t),
                       ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
    nbr = lf.nabla_hat(albr.bracket(xi, ze, h=ctx.h), b, ctx.coarse_grid,
                       h=ctx.h, h_t=ctx.h_t)
    resid = abs(n12.scalar(g) - n21.scalar(g) - nbr.scalar(g))
    t0 = 0.37
    resid = max(resid, np.linalg.norm(
        n12.body.profile(g, t0) - n21.body.profile(g, t0) - nbr.body.profile(g, t0)))
    tol = ctx.tolerance("lifting", "nablahat_flat", 1e-4)
    return [_result(ctx, "nablahat_flat", "lifting",
                    "nabla_hat is flat: [nabla_1, nabla_2] = nabla_{[1,2]}",
                    resid, tol)]


@_register("nablahat_derivation", "lifting",
           identity="nabla_hat differentiates the extended bracket")
def check_nablahat_derivation(ctx):
    rng = ctx.rng("nablahat_derivation")
    alg = ctx.algebra
    g = alg.random_group(rng, scale=0.5)
    xi = random_section(alg, rng, bump=ctx.bump)
    b1 = lf.ExtendedLSection.split(random_twisted_loop(alg, rng, bump=ctx.bump))
    b2 = lf.ExtendedLSection.split(random_twisted_loop(alg, rng, bump=ctx.bump))
    lhs = lf.nabla_hat(xi, lf.bracket_lhat(b1, b2, ctx.coarse_grid, h_t=ctx.h_t),
                       ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
    r1 = lf.bracket_lhat(lf.nabla_hat(xi, b1, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t),
                         b2, ctx.coarse_grid, h_t=ctx.h_t)
    r2 = lf.bracket_lhat(b1, lf.nabla_hat(xi, b2, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t),
                         ctx.coarse_grid, h_t=ctx.h_t)
    resid = abs(lhs.scalar(g) - r1.scalar(g) - r2.scalar(g))
    t0 = 0.41
    resid = max(resid, np.linalg.norm(
        lhs.body.profile(g, t0) - r1.body.profile(g, t0) - r2.body.profile(g, t0)))
    tol = ctx.tolerance("lifting", "nablahat_derivation", 1e-5)
    return [_result(ctx, "nablahat_derivation", "lifting",
                    "nabla_hat differentiates the extended bracket", resid, tol)]


@_register("varpi_antisymmetry", "lifting",
           identity="varpi(xi, zeta) + varpi(zeta, xi) = 0")
def check_varpi_antisym(ctx):
    rng = ctx.rng("varpi_antisymmetry")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        worst = max(worst, abs(
            lf.canonical_two_form(xi, ze, g, ctx.grid, h_t=ctx.h_t)
            + lf.canonical_two_form(ze, xi, g, ctx.grid, h_t=ctx.h_t)))
    tol = ctx.tolerance("lifting", "varpi_antisymmetry", 1e-6)
    return [_result(ctx, "varpi_antisymmetry", "lifting",
                    "varpi(xi, zeta) + varpi(zeta, xi) = 0", worst, tol)]


@_register("varpi_generators", "lifting", groups=("so3", "su2"),
           identity="varpi(x_A, y_A) = (1/2) x.(Ad_g - Ad_{g^{-1}}) y")
def check_varpi_generators(ctx):
    rng = ctx.rng("varpi_generators")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(ctx.samples, 20)):
        g = alg.random_group(rng)
        x, y = alg.random_vector(rng), alg.random_vector(rng)
        got = lf.canonical_two_form(albr.generator(alg, x), albr.generator(alg, y),
                                    g, ctx.grid, h_t=ctx.h_t)
        want = 0.5 * alg.pairing(x, alg.Ad(g, y) - alg.Ad(alg.inv(g), y))
        worst = max(worst, abs(got - want))
    # the pinned spot value at the quarter turn
    e = np.eye(alg.dim)
    g0 = alg.exp(0.5 * np.pi * e[2])
    spot = lf.canonical_two_form(albr.generator(alg, e[0]), albr.generator(alg, e[1]),
                                 g0, ctx.grid, h_t=ctx.h_t)
    worst = max(worst, abs(spot + 1.0))
    tol = ctx.tolerance("lifting", "varpi_generators", 1e-8)
    return [_result(ctx, "varpi_generators", "lifting",
                    "varpi(x_A, y_A) = (1/2) x.(Ad_g - Ad_{g^{-1}}) y",
                    worst, tol, notes=f"spot value {spot:.12f} at the quarter turn")]


@_register("varpi_splitting_routes", "lifting",
           identity="varpi^alpha = <dj,theta> + (1/2) sigma(theta,theta) = a* Q^alpha + varpi")
def check_varpi_routes(ctx):
    rng = ctx.rng("varpi_splitting_routes")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        alpha = _invariant_family(ctx, rng)
        bry = lf.brylinski_two_form(alpha, xi, ze, g, ctx.grid, h_t=ctx.h_t)
        base = lf.canonical_two_form(xi, ze, g, ctx.grid, h_t=ctx.h_t)
        q = lf.q_alpha(alpha, g, xi.v(g), ze.v(g), ctx.grid)
        worst = max(worst, abs(bry - (q + base)))
    tol = ctx.tolerance("lifting", "varpi_splitting_routes", 1e-5)
    return [_result(ctx, "varpi_splitting_routes", "lifting",
                    "varpi^alpha = <dj,theta> + (1/2) sigma(theta,theta) = a* Q^alpha + varpi",
                    worst, tol)]


@_register("varpi_kappa_q", "lifting", identity="varpi = -Q^kappa")
def check_varpi_kappa_q(ctx):
    rng = ctx.rng("varpi_kappa_q")
    alg = ctx.algebra
    fam = bt.KappaAsFamily(alg, h_t=ctx.h_t)
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        q = bt.q_functional(fam, g, xi, ze, ctx.grid, h=ctx.h)
        base = lf.canonical_two_form(xi, ze, g, ctx.grid, h_t=ctx.h_t)
        worst = max(worst, abs(base + q))
    tol = ctx.tolerance("lifting", "varpi_kappa_q", 1e-8)
    return [_result(ctx, "varpi_kappa_q", "lifting",
                    "varpi = -Q^kappa", worst, tol)]


@_register("q_closed_form", "lifting",
           identity="Q^alpha = ((thL+thR)/2).alpha_0 + (1/2) alpha_0 . Ad_g alpha_0; 0 when alpha_0 = 0")
def check_q_closed_form(ctx):
    rng = ctx.rng("q_closed_form")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        v, w = alg.random_vector(rng), alg.random_vector(rng)
        alpha = _invariant_family(ctx, rng)
        q1 = lf.q_alpha(alpha, g, v, w, ctx.grid)
        q2 = lf.q_alpha_closed_form(alpha, g, v, w)
        worst = max(worst, abs(q1 - q2))
        zero = albr.build_alpha(alg, bump=ctx.bump)
        worst = max(worst, abs(lf.q_alpha(zero, g, v, w, ctx.grid)))
    tol = ctx.tolerance("lifting", "q_closed_form", 1e-8)
    return [_result(ctx, "q_closed_form", "lifting",
                    "Q^alpha = ((thL+thR)/2).alpha_0 + (1/2) alpha_0 . Ad_g alpha_0; 0 when alpha_0 = 0",
                    worst, tol)]


@_register("iota_loop_varpi", "lifting",
           identity="i_xi varpi = -<dj, xi> for xi in the loop bundle")
def check_iota_loop_varpi(ctx):
    rng = ctx.rng("iota_loop_varpi")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.5)
        ze = random_twisted_loop(alg, rng, bump=ctx.bump)
        chi = random_section(alg, rng, bump=ctx.bump)
        lhs = lf.canonical_two_form(ze, chi, g, ctx.grid, h_t=ctx.h_t)
        rhs = -integrate_01(
            lambda t: alg.pairing(time_derivative(chi, g, t, h_t=ctx.h_t),
                                  extend(ze, g, t)), ctx.grid)
        worst = max(worst, abs(lhs - rhs))
    tol = ctx.tolerance("lifting", "iota_loop_varpi", 1e-5)
    return [_result(ctx, "iota_loop_varpi", "lifting",
                    "i_xi varpi = -<dj, xi> for xi in the loop bundle", worst, tol)]


@_register("iota_generator_varpi", "lifting",
           identity="i_{x_A} varpi = (1/2) a*((theta^L + theta^R).x)")
def check_iota_generator_varpi(ctx):
    rng = ctx.rng("iota_generator_varpi")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        x = alg.random_vector(rng)
        chi = random_section(alg, rng, bump=ctx.bump)
        lhs = lf.canonical_two_form(albr.generator(alg, x), chi, g, ctx.grid,
                                    h_t=ctx.h_t)
        rhs = 0.5 * alg.pairing(alg.maurer_cartan(g, chi.v(g), "left") + chi.v(g), x)
        worst = max(worst, abs(lhs - rhs))
    tol = ctx.tolerance("lifting", "iota_generator_varpi", 1e-5)
    return [_result(ctx, "iota_generator_varpi", "lifting",
                    "i_{x_A} varpi = (1/2) a*((theta^L + theta^R).x)", worst, tol)]


@_register("dvarpi_eta", "lifting", identity="d varpi = a* eta")
def check_dvarpi_eta(ctx):
    rng = ctx.rng("dvarpi_eta")
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.grid, h_t=ctx.h_t)
    eta = fm.pullback_anchor(fm.cartan_three_form(alg))
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        lhs = fm.exterior_derivative(vform, h=ctx.h)(g, *secs)
        rhs = eta(g, *secs)
        worst = max(worst, abs(lhs - rhs))
    tol = ctx.tolerance("lifting", "dvarpi_eta", 1e-4)
    return [_result(ctx, "dvarpi_eta", "lifting",
                    "d varpi = a* eta", worst, tol)]


@_register("equivariant_three_form", "lifting", groups=("su2",),
           identity="d_G varpi(x) = a* eta_G(x)")
def check_equivariant_three_form(ctx):
    rng = ctx.rng("equivariant_three_form")
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.grid, h_t=ctx.h_t)
    eta = fm.cartan_three_form(alg)
    worst = 0.0
    n_x = 5
    for trial in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        d3 = fm.exterior_derivative(vform, h=ctx.h)(g, *secs)
        r3 = eta(g, *[s.v(g) for s in secs])
        worst = max(worst, abs(d3 - r3))
        for _ in range(n_x):
            x = alg.random_vector(rng)
            xa = albr.generator(alg, x)
            lhs1 = -vform(g, xa, secs[0])
            rhs1 = fm.equivariant_cartan(alg, x)[1](g, secs[0].v(g))
            worst = max(worst, abs(lhs1 - rhs1))
    tol = ctx.tolerance("lifting", "equivariant_three_form", 1e-4)
    return [_result(ctx, "equivariant_three_form", "lifting",
                    "d_G varpi(x) = a* eta_G(x)", worst, tol,
                    params={"group": ctx.group_name, "x_samples": n_x})]


@_register("eta_data_route", "lifting",
           identity="-<d^theta j, F^theta> = a* eta for alpha_0 = 0")
def check_eta_data_route(ctx):
    rng = ctx.rng("eta_data_route")
    alg = ctx.algebra
    alpha = albr.build_alpha(alg, bump=ctx.bump)
    etad = lf.eta_from_data(alpha, ctx.coarse_grid, h=ctx.h)
    eta = fm.cartan_three_form(alg)
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        vs = [alg.random_vector(rng) for _ in range(3)]
        worst = max(worst, abs(etad(g, *vs) - eta(g, *vs)))
    tol = ctx.tolerance("lifting", "eta_data_route", 1e-5)
    return [_result(ctx, "eta_data_route", "lifting",
                    "-<d^theta j, F^theta> = a* eta for alpha_0 = 0", worst, tol)]


@_register("lifted_jacobi_primitive", "lifting", groups=("heisenberg3", "torus2"),
           identity="d omega = -eta makes the lifted bracket a Lie bracket")
def check_lifted_jacobi_primitive(ctx):
    rng = ctx.rng("lifted_jacobi_primitive")
    alg = ctx.algebra
    alpha = albr.build_alpha(alg, bump=ctx.bump)
    omega = None
    if ctx.group_name == "heisenberg3":
        # radial-homotopy primitive of -eta in exponential coordinates
        from .homotopy import poincare_primitive
        prim = poincare_primitive(fm.cartan_three_form(alg), sign=-1.0)
        omega = lambda g, v, w, prim=prim: prim(g, v, w)
    worst = 0.0
    for _ in range(2):
        g = alg.random_group(rng, scale=0.5)
        vs = [alg.random_vector(rng) for _ in range(3)]
        fields = [lambda gg, vv=v: vv for v in vs]
        om_form = None
        if omega is not None:
            om_form = fm.DeRhamForm(alg, 2, omega)
        jac = lf.lifted_jacobiator_scalar(om_form, alpha, fields, g,
                                          ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
        worst = max(worst, abs(jac))
    tol = ctx.tolerance("lifting", "lifted_jacobi_primitive", 1e-4)
    return [_result(ctx, "lifted_jacobi_primitive", "lifting",
                    "d omega = -eta makes the lifted bracket a Lie bracket",
                    worst, tol)]


@_register("lifted_jacobi_obstruction", "lifting",
           groups=("su2", "heisenberg3", "torus2"),
           identity="scalar Jacobiator of the lifted bracket = (d omega + eta)(X1,X2,X3)")
def check_lifted_jacobi_obstruction(ctx):
    rng = ctx.rng("lifted_jacobi_obstruction")
    alg = ctx.algebra
    alpha = albr.build_alpha(alg, bump=ctx.bump)
    eta = fm.cartan_three_form(alg)
    worst = 0.0
    notes = []
    cases = [("omega=0", None)]
    if ctx.group_name == "heisenberg3":
        om = fm.DeRhamForm(alg, 2,
                           lambda g, a, b: g[0, 2] * (a[0] * b[1] - a[1] * b[0]))
        cases.append(("coordinate omega", om))
    for label, om in cases:
        g = alg.random_group(rng, scale=0.5)
        vs = [alg.random_vector(rng) for _ in range(3)]
        fields = [lambda gg, vv=v: vv for v in vs]
        jac = lf.lifted_jacobiator_scalar(om, alpha, fields, g, ctx.coarse_grid,
                                          h=ctx.h, h_t=ctx.h_t)
        target = eta(g, *vs)
        if om is not None:
            target += fm.de_rham_differential(om, h=ctx.h)(g, *vs)
        worst = max(worst, abs(jac - target))
        notes.append(f"{label}: jacobiator {jac:.6g} vs {target:.6g}")
    tol = ctx.tolerance("lifting", "lifted_jacobi_obstruction", 1e-4)
    return [_result(ctx, "lifted_jacobi_obstruction", "lifting",
                    "scalar Jacobiator of the lifted bracket = (d omega + eta)(X1,X2,X3)",
                    worst, tol, notes="; ".join(notes))]


@_register("equivariant_generators", "lifting", groups=("heisenberg3", "torus2"),
           identity="omega(x_N, X) + d Phi(x)(X) = <d^theta j(X), Psi(x)>")
def check_equivariant_generators(ctx):
    rng = ctx.rng("equivariant_generators")
    alg = ctx.algebra
    from .homotopy import poincare_primitive
    alpha = albr.build_alpha(alg, bump=ctx.bump)

    def phi_map(x):
        mu = fm.DeRhamForm(alg, 1, lambda g, a:
                           -0.5 * alg.pairing(alg.maurer_cartan(g, a, "left") + a, x))
        prim = poincare_primitive(mu, sign=1.0)
        return lambda g: prim(g)

    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng, scale=0.6)
        x = alg.random_vector(rng)
        v = alg.random_vector(rng)
        worst = max(worst, lf.equivariant_generator_residual(
            None, phi_map, alpha, x, v, g, ctx.coarse_grid))
    tol = ctx.tolerance("lifting", "equivariant_generators", 1e-4)
    return [_result(ctx, "equivariant_generators", "lifting",
                    "omega(x_N, X) + d Phi(x)(X) = <d^theta j(X), Psi(x)>",
                    worst, tol)]


@_register("gamma_change", "lifting", groups=("su2",),
           identity="eta' - eta = d gamma under (j, theta) -> (j + beta, theta + lambda)")
def check_gamma_change(ctx):
    rng = ctx.rng("gamma_change")
    alg = ctx.algebra
    grid = TimeGrid(51)
    alpha = albr.build_alpha(alg, alpha0=albr.invariant_alpha0(alg, (0.2, -0.1, 0.05)),
                             bump=ctx.bump, invariant=True)
    c1, c2 = alg.random_vector(rng, 0.3), alg.random_vector(rng, 0.3)
    lam0 = lambda g, v: alg.pairing(c1, v) * c2 + 0.2 * alg.Ad(g, v)
    lam = lf.HorizontalFamily(alg, lam0, ctx.bump)
    bker = random_twisted_loop(alg, rng, scale=0.4, bump=ctx.bump)
    gam = lf.gamma_change(alpha, lam, bker, grid, h=ctx.h, h_t=ctx.h_t)
    etap = lf.eta_perturbed(alpha, lam, bker, grid, h=ctx.h, h_t=ctx.h_t)
    eta0 = lf.eta_from_data(alpha, grid, h=ctx.h)
    g = alg.random_group(rng)
    vs = [alg.random_vector(rng) for _ in range(3)]
    lhs = etap(g, *vs) - eta0(g, *vs)
    rhs = fm.de_rham_differential(gam, h=ctx.h)(g, *vs)
    # specialization: lambda = 0, beta only: a* gamma = -<beta, F>
    gam0 = lf.gamma_change(alpha, lf.HorizontalFamily(alg, lambda g, v: np.zeros(alg.dim), ctx.bump),
                           bker, grid, h=ctx.h, h_t=ctx.h_t)
    fsec = lf._curvature_section(alpha, lambda gg: vs[0], lambda gg: vs[1], h=ctx.h)
    want = -integrate_01(lambda t: alg.pairing(extend(bker, g, t), fsec.profile(g, t)),
                         grid)
    resid2 = abs(gam0(g, vs[0], vs[1]) - want)
    worst = max(abs(lhs - rhs), resid2)
    tol = ctx.tolerance("lifting", "gamma_change", 1e-4)
    return [_result(ctx, "gamma_change", "lifting",
                    "eta' - eta = d gamma under (j, theta) -> (j + beta, theta + lambda)",
                    worst, tol)]


# ---------------------------------------------------------------------------
# bott suite
# ---------------------------------------------------------------------------

def _random_gvalued(ctx, rng):
    alg = ctx.algebra
    thl = bt.oneform_theta_left(alg)
    c = alg.random_vector(rng, 0.5)
    d = alg.random_vector(rng, 0.5)
    return bt.GValuedOneForm(
        alg, lambda g, s: 0.4 * thl(g, s) + alg.pairing(c, s.v(g)) * alg.Ad(g, d))


@_register("convention_table", "bott", groups=("su2",),
           identity="orientation signs calibrated once on su2")
def check_convention_table(ctx):
    table = ctx.conventions().as_dict()
    return [_result(ctx, "convention_table", "bott",
                    "orientation signs calibrated once on su2",
                    0.0, 1.0, notes=str(table))]


@_register("stokes_family", "bott",
           identity="d Upsilon(b_0..b_k) = alternating sum of Upsilon with one form omitted")
def check_stokes_family(ctx):
    rng = ctx.rng("stokes_family")
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    worst = 0.0
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 3)
    thl = bt.oneform_theta_left(alg)
    b1 = _random_gvalued(ctx, rng)
    b2 = bt.kappa_oneform(alg, 0.3)
    u1 = fm.AlgebroidForm(alg, 2, lambda gg, *ss:
                          bt.upsilon(p, [thl, b1], gg, ss, conventions=conv, h=ctx.h))
    lhs = fm.exterior_derivative(u1, h=ctx.h)(g, *secs)
    rhs = bt.upsilon(p, [b1], g, secs, conventions=conv, h=ctx.h) \
        - bt.upsilon(p, [thl], g, secs, conventions=conv, h=ctx.h)
    worst = max(worst, abs(lhs - rhs))
    u2 = fm.AlgebroidForm(alg, 1, lambda gg, *ss:
                          bt.upsilon(p, [thl, b1, b2], gg, ss, conventions=conv, h=ctx.h))
    lhs2 = fm.exterior_derivative(u2, h=ctx.h)(g, *secs[:2])
    rhs2 = bt.upsilon(p, [b1, b2], g, secs[:2], conventions=conv, h=ctx.h) \
        - bt.upsilon(p, [thl, b2], g, secs[:2], conventions=conv, h=ctx.h) \
        + bt.upsilon(p, [thl, b1], g, secs[:2], conventions=conv, h=ctx.h)
    worst = max(worst, abs(lhs2 - rhs2))
    tol = ctx.tolerance("bott", "stokes_family", 1e-3)
    return [_result(ctx, "stokes_family", "bott",
                    "d Upsilon(b_0..b_k) = alternating sum of Upsilon with one form omitted",
                    worst, tol)]


@_register("upsilon_gauge_invariance", "bott",
           identity="Upsilon(Phi.b_0, Phi.b_1) = Upsilon(b_0, b_1), equivariant version too")
def check_upsilon_gauge(ctx):
    rng = ctx.rng("upsilon_gauge_invariance")
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 3)
    b0 = _random_gvalued(ctx, rng)
    b1 = bt.kappa_oneform(alg, 0.25)
    phi = lambda gg: gg @ gg
    gb0, gb1 = bt.gauge_transform(phi, b0, h=ctx.h), bt.gauge_transform(phi, b1, h=ctx.h)
    worst = abs(bt.upsilon(p, [b0, b1], g, secs, conventions=conv, h=ctx.h)
                - bt.upsilon(p, [gb0, gb1], g, secs, conventions=conv, h=ctx.h))
    x = alg.random_vector(rng)
    for args in (secs, secs[:1]):
        worst = max(worst, abs(
            bt.upsilon_equivariant(p, [b0, b1], x, g, args, conventions=conv, h=ctx.h)
            - bt.upsilon_equivariant(p, [gb0, gb1], x, g, args, conventions=conv, h=ctx.h)))
    tol = ctx.tolerance("bott", "upsilon_gauge_invariance", 1e-4)
    return [_result(ctx, "upsilon_gauge_invariance", "bott",
                    "Upsilon(Phi.b_0, Phi.b_1) = Upsilon(b_0, b_1), equivariant version too",
                    worst, tol)]


@_register("gauge_composition", "bott",
           identity="(Phi' Phi).beta = Phi'.(Phi.beta)")
def check_gauge_composition(ctx):
    rng = ctx.rng("gauge_composition")
    alg = ctx.algebra
    g = alg.random_group(rng)
    sec = random_section(alg, rng, bump=ctx.bump)
    beta = _random_gvalued(ctx, rng)
    e0 = alg.random_vector(rng, 0.4)
    phi1 = lambda gg: alg.exp(e0) @ gg
    phi2 = lambda gg: gg @ gg
    lhs = bt.gauge_transform(lambda gg: phi2(gg) @ phi1(gg), beta, h=ctx.h)(g, sec)
    rhs = bt.gauge_transform(phi2, bt.gauge_transform(phi1, beta, h=ctx.h), h=ctx.h)(g, sec)
    worst = float(np.linalg.norm(lhs - rhs))
    zero = bt.oneform_zero(alg)
    idm = lambda gg: gg
    val = bt.gauge_transform(idm, zero, h=ctx.h)(g, sec)
    worst = max(worst, float(np.linalg.norm(val + sec.v(g))))
    tol = ctx.tolerance("bott", "gauge_composition", 1e-6)
    return [_result(ctx, "gauge_composition", "bott",
                    "(Phi' Phi).beta = Phi'.(Phi.beta)", worst, tol,
                    notes="identity-map gauge of 0 gives -theta^R")]


@_register("cs_vs_bott", "bott",
           identity="CS(beta) = c Upsilon^p(0, beta) with one fixed sign c")
def check_cs_vs_bott(ctx):
    rng = ctx.rng("cs_vs_bott")
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    zero = bt.oneform_zero(alg)
    ratios = []
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        beta = _random_gvalued(ctx, rng)
        ub = bt.upsilon(p, [zero, beta], g, secs, conventions=conv, h=ctx.h)
        cs = bt.chern_simons(beta, g, secs, h=ctx.h)
        if abs(cs) > 1e-8:
            ratios.append(ub / cs)
    if ratios:
        c = float(np.sign(ratios[0]))
        worst = max(abs(r - c) for r in ratios)
    tol = ctx.tolerance("bott", "cs_vs_bott", 1e-4)
    notes = f"fixed sign {c:g}" if ratios else "degenerate samples"
    return [_result(ctx, "cs_vs_bott", "bott",
                    "CS(beta) = c Upsilon^p(0, beta) with one fixed sign c",
                    worst, tol, notes=notes)]


@_register("eta_p_anchor", "bott", groups=("su2", "so3"),
           identity="Upsilon^p(0, theta^L) = c eta with the recorded sign")
def check_eta_p_anchor(ctx):
    rng = ctx.rng("eta_p_anchor")
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    zero = bt.oneform_zero(alg)
    thl = bt.oneform_theta_left(alg)
    eta = fm.pullback_anchor(fm.cartan_three_form(alg))
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        got = bt.upsilon(p, [zero, thl], g, secs, conventions=conv, h=ctx.h)
        want = conv.eta_p_vs_eta * eta(g, *secs)
        worst = max(worst, abs(got - want))
    tol = ctx.tolerance("bott", "eta_p_anchor", 1e-4)
    return [_result(ctx, "eta_p_anchor", "bott",
                    "Upsilon^p(0, theta^L) = c eta with the recorded sign",
                    worst, tol, notes=f"c = {conv.eta_p_vs_eta:g}")]


@_register("cs_exact", "bott", identity="d CS(beta) = (1/2) F^beta . F^beta")
def check_cs_exact(ctx):
    rng = ctx.rng("cs_exact")
    alg = ctx.algebra
    p = quadratic_polynomial(alg)
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 4)
    beta = _random_gvalued(ctx, rng)
    csf = fm.AlgebroidForm(alg, 3, lambda gg, *ss: bt.chern_simons(beta, gg, ss, h=ctx.h))
    lhs = fm.exterior_derivative(csf, h=ctx.h)(g, *secs)
    rhs = bt.upsilon(p, [beta], g, secs, rule=bt.SimplexRule(0), h=ctx.h)
    worst = abs(lhs - rhs)
    tol = ctx.tolerance("bott", "cs_exact", 1e-4)
    return [_result(ctx, "cs_exact", "bott",
                    "d CS(beta) = (1/2) F^beta . F^beta", worst, tol)]


@_register("cs_gauge_law", "bott",
           identity="CS(Phi.beta) = CS(beta) + Phi* eta - (1/2) d(beta . Phi* theta^L)")
def check_cs_gauge_law(ctx):
    rng = ctx.rng("cs_gauge_law")
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    worst = 0.0
    for _ in range(max(1, ctx.samples // 2)):
        g = alg.random_group(rng)
        secs = ctx.random_sections(rng, 3)
        beta = _random_gvalued(ctx, rng)
        phi = lambda gg: gg @ gg

        def phi_eta(gg, *ss):
            vs = [bt.map_theta_right(alg, phi, gg, s.v(gg), h=ctx.h) for s in ss]
            return eta(phi(gg), *vs)

        pair = fm.AlgebroidForm(alg, 2, lambda gg, s1, s2:
                                alg.pairing(beta(gg, s1), bt.map_theta_left(alg, phi, gg, s2.v(gg), h=ctx.h))
                                - alg.pairing(beta(gg, s2), bt.map_theta_left(alg, phi, gg, s1.v(gg), h=ctx.h)))
        lhs = bt.chern_simons(bt.gauge_transform(phi, beta, h=ctx.h), g, secs, h=ctx.h)
        rhs = bt.chern_simons(beta, g, secs, h=ctx.h) + phi_eta(g, *secs) \
            - 0.5 * fm.exterior_derivative(pair, h=ctx.h)(g, *secs)
        worst = max(worst, abs(lhs - rhs))
    tol = ctx.tolerance("bott", "cs_gauge_law", 1e-4)
    return [_result(ctx, "cs_gauge_law", "bott",
                    "CS(Phi.beta) = CS(beta) + Phi* eta - (1/2) d(beta . Phi* theta^L)",
                    worst, tol)]


def _gauge_family(ctx, rng, phi=None):
    alg = ctx.algebra
    beta0 = _random_gvalued(ctx, rng)
    if phi is None:
        e1 = alg.random_vector(rng, 0.4)
        phi = lambda gg, m=alg.exp(e1): gg @ m
    return bt.GaugePeriodicFamily(alg, beta0, phi, bump=ctx.bump, h=ctx.h)


@_register("transgression", "bott",
           identity="d/dt CS(beta_t) = beta_t' . F^{beta_t} - (1/2) d(beta_t . beta_t')")
def check_transgression(ctx):
    rng = ctx.rng("transgression")
    alg = ctx.algebra
    fam = _gauge_family(ctx, rng)
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 3)
    tt = 0.37
    hh = 1e-4
    csdot = (bt.chern_simons(fam.at(tt + hh), g, secs, h=ctx.h)
             - bt.chern_simons(fam.at(tt - hh), g, secs, h=ctx.h)) / (2 * hh)
    from .bott import _PairData
    data = _PairData(alg, [fam.at(tt)], secs, g, h=ctx.h)
    dv = [fam.tderiv(tt, g, s) for s in secs]
    rhs = 0.0
    for (i, j, k), sign in (((0, 1, 2), 1.0), ((1, 0, 2), -1.0), ((2, 0, 1), 1.0)):
        f = data.dbeta(0, j, k) + alg.bracket(data.value(0, j), data.value(0, k))
        rhs += sign * alg.pairing(dv[i], f)
    pair = fm.AlgebroidForm(alg, 2, lambda gg, s1, s2:
                            alg.pairing(fam.value(tt, gg, s1), fam.tderiv(tt, gg, s2))
                            - alg.pairing(fam.value(tt, gg, s2), fam.tderiv(tt, gg, s1)))
    rhs -= 0.5 * fm.exterior_derivative(pair, h=ctx.h)(g, *secs)
    worst = abs(csdot - rhs)
    tol = ctx.tolerance("bott", "transgression", 1e-4)
    return [_result(ctx, "transgression", "bott",
                    "d/dt CS(beta_t) = beta_t' . F^{beta_t} - (1/2) d(beta_t . beta_t')",
                    worst, tol)]


@_register("cs_period_integral", "bott",
           identity="int_0^1 beta' . F^{beta_t} dt = Phi* eta + d Q^beta")
def check_cs_period_integral(ctx):
    rng = ctx.rng("cs_period_integral")
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    fam = _gauge_family(ctx, rng)
    g = alg.random_group(rng)
    secs = ctx.random_sections(rng, 3)
    grid = TimeGrid(51)
    from .bott import _PairData

    def integrand(t):
        data = _PairData(alg, [fam.at(t)], secs, g, h=ctx.h)
        dv = [fam.tderiv(t, g, s) for s in secs]
        out = 0.0
        for (i, j, k), sign in (((0, 1, 2), 1.0), ((1, 0, 2), -1.0), ((2, 0, 1), 1.0)):
            f = data.dbeta(0, j, k) + alg.bracket(data.value(0, j), data.value(0, k))
            out += sign * alg.pairing(dv[i], f)
        return out

    lhs = integrate_01(integrand, grid)

    def phi_eta(gg, *ss):
        vs = [bt.map_theta_right(alg, fam.phi, gg, s.v(gg), h=ctx.h) for s in ss]
        return eta(fam.phi(gg), *vs)

    qform = fm.AlgebroidForm(alg, 2,
                             lambda gg, s1, s2: bt.q_functional(fam, gg, s1, s2, grid, h=ctx.h))
    rhs = phi_eta(g, *secs) + fm.exterior_derivative(qform, h=ctx.h)(g, *secs)
    worst = abs(lhs - rhs)
    tol = ctx.tolerance("bott", "cs_period_integral", 1e-4)
    return [_result(ctx, "cs_period_integral", "bott",
                    "int_0^1 beta' . F^{beta_t} dt = Phi* eta + d Q^beta",
                    worst, tol)]


@_register("cs_period_equivariant", "bott",
           identity="int beta'.(F_G + x) dt = Phi* eta_G + d_G Q (degree-1 component)")
def check_cs_period_equivariant(ctx):
    rng = ctx.rng("cs_period_equivariant")
    alg = ctx.algebra
    phi = lambda gg: gg @ gg
    thl = bt.oneform_theta_left(alg)
    beta0 = bt.GValuedOneForm(alg, lambda g, s: 0.4 * thl(g, s))
    fam = bt.GaugePeriodicFamily(alg, beta0, phi, bump=ctx.bump, h=ctx.h)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    xi = random_section(alg, rng, bump=ctx.bump)
    xa = albr.generator(alg, x)
    grid = TimeGrid(51)

    def integrand(t):
        form = fam.at(t)
        iota = form(g, xa)
        return alg.pairing(fam.tderiv(t, g, xi), np.asarray(x) - iota)

    lhs = integrate_01(integrand, grid)
    w = bt.map_theta_right(alg, phi, g, xi.v(g), h=ctx.h)
    gphi = phi(g)
    rhs = -0.5 * alg.pairing(alg.Ad(alg.inv(gphi), w) + w, x)
    rhs -= bt.q_functional(fam, g, xa, xi, grid, h=ctx.h)
    worst = abs(lhs - rhs)
    tol = ctx.tolerance("bott", "cs_period_equivariant", 1e-4)
    return [_result(ctx, "cs_period_equivariant", "bott",
                    "int beta'.(F_G + x) dt = Phi* eta_G + d_G Q (degree-1 component)",
                    worst, tol)]


@_register("q_reparametrization", "bott",
           identity="Q(beta o phi) = Q(beta) for phi(t+1) = phi(t) + 1")
def check_q_reparam(ctx):
    rng = ctx.rng("q_reparametrization")
    alg = ctx.algebra
    fam = _gauge_family(ctx, rng)
    g = alg.random_group(rng)
    s1, s2 = ctx.random_sections(rng, 2)

    class Reparam:
        def __init__(self, base, phase, shift):
            self.algebra = base.algebra
            self.phi = base.phi
            self.base, self.phase, self.shift = base, phase, shift

        def _ph(self, t):
            return t + self.phase * np.sin(2 * np.pi * t) + self.shift

        def _dph(self, t):
            return 1.0 + self.phase * 2 * np.pi * np.cos(2 * np.pi * t)

        def value(self, t, g, s):
            return self.base.value(self._ph(t), g, s)

        def tderiv(self, t, g, s):
            return self._dph(t) * self.base.tderiv(self._ph(t), g, s)

    q0 = bt.q_functional(fam, g, s1, s2, ctx.grid, h=ctx.h)
    q1 = bt.q_functional(Reparam(fam, 0.1, 0.13), g, s1, s2, ctx.grid, h=ctx.h)
    worst = abs(q0 - q1)
    tol = ctx.tolerance("bott", "q_reparametrization", 1e-6)
    return [_result(ctx, "q_reparametrization", "bott",
                    "Q(beta o phi) = Q(beta) for phi(t+1) = phi(t) + 1", worst, tol)]


@_register("q_inversion", "bott", identity="Q(beta^-) = -Q(beta)")
def check_q_inversion(ctx):
    rng = ctx.rng("q_inversion")
    alg = ctx.algebra
    fam = _gauge_family(ctx, rng)
    g = alg.random_group(rng)
    s1, s2 = ctx.random_sections(rng, 2)

    class Invert:
        def __init__(self, base):
            self.algebra = base.algebra
            self.phi = lambda gg: base.algebra.inv(base.phi(gg))
            self.base = base

        def value(self, t, g, s):
            return self.base.value(-t, g, s)

        def tderiv(self, t, g, s):
            return -self.base.tderiv(-t, g, s)

    q0 = bt.q_functional(fam, g, s1, s2, ctx.grid, h=ctx.h)
    q1 = bt.q_functional(Invert(fam), g, s1, s2, ctx.grid, h=ctx.h)
    worst = abs(q0 + q1)
    tol = ctx.tolerance("bott", "q_inversion", 1e-6)
    return [_result(ctx, "q_inversion", "bott",
                    "Q(beta^-) = -Q(beta)", worst, tol)]


@_register("q_concatenation", "bott",
           identity="Q(b2 * b1) = Q(b1) + Q(b2) + (1/2) Phi2* theta^L . Phi1* theta^R")
def check_q_concat(ctx):
    rng = ctx.rng("q_concatenation")
    alg = ctx.algebra
    g = alg.random_group(rng)
    s1, s2 = ctx.random_sections(rng, 2)
    beta0 = _random_gvalued(ctx, rng)
    e0, e1 = alg.random_vector(rng, 0.4), alg.random_vector(rng, 0.4)
    phi1 = lambda gg, m=alg.exp(e0): m @ gg
    phi2 = lambda gg, m=alg.exp(e1): gg @ m
    f1 = bt.GaugePeriodicFamily(alg, beta0, phi1, bump=ctx.bump, h=ctx.h)
    f2 = bt.GaugePeriodicFamily(alg, bt.gauge_transform(phi1, beta0, h=ctx.h), phi2,
                                bump=ctx.bump, h=ctx.h)
    cat = bt.concat_families(f1, f2, alg)
    qc = bt.q_functional(cat, g, s1, s2, ctx.grid, h=ctx.h)
    q1 = bt.q_functional(f1, g, s1, s2, ctx.grid, h=ctx.h)
    q2 = bt.q_functional(f2, g, s1, s2, ctx.grid, h=ctx.h)
    lam = bt.q_concat_lambda(alg, phi1, phi2, g, s1, s2, h=ctx.h)
    worst = abs(qc - q1 - q2 - lam)
    tol = ctx.tolerance("bott", "q_concatenation", 1e-5)
    return [_result(ctx, "q_concatenation", "bott",
                    "Q(b2 * b1) = Q(b1) + Q(b2) + (1/2) Phi2* theta^L . Phi1* theta^R",
                    worst, tol)]


@_register("bott_equivariant_closed", "bott",
           identity="d_G Upsilon^p_G(0, theta^L) = p(Ad_{g^{-1}} x) - p(x) = 0")
def check_bott_equiv_closed(ctx):
    rng = ctx.rng("bott_equivariant_closed")
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    _, etaPG = bt.eta_p_form(p, conv, h=ctx.h)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    secs = ctx.random_sections(rng, 2)
    xa = albr.generator(alg, x)
    one = fm.AlgebroidForm(alg, 1, lambda gg, *ss: etaPG(x, gg, list(ss)))
    three = fm.AlgebroidForm(alg, 3, lambda gg, *ss: etaPG(x, gg, list(ss)))
    resid2 = fm.exterior_derivative(one, h=ctx.h)(g, *secs) - three(g, xa, *secs)
    resid0 = one(g, xa)
    worst = max(abs(resid2), abs(resid0))
    tol = ctx.tolerance("bott", "bott_equivariant_closed", 1e-4)
    return [_result(ctx, "bott_equivariant_closed", "bott",
                    "d_G Upsilon^p_G(0, theta^L) = p(Ad_{g^{-1}} x) - p(x) = 0",
                    worst, tol)]


@_register("flat_family_transgression", "bott",
           identity="Upsilon_G(0,b_1) - Upsilon_G(0,b_0) = s d_G I (flat family, recorded s)")
def check_flat_family(ctx):
    rng = ctx.rng("flat_family_transgression")
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    fam = bt.KappaAsFamily(alg, h_t=ctx.h_t)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    secs = ctx.random_sections(rng, 3)
    zero = bt.oneform_zero(alg)
    kap0, kap1 = bt.kappa_oneform(alg, 0.0), bt.kappa_oneform(alg, 1.0)
    # flatness precondition of the family route
    xa = albr.generator(alg, x)
    pre = 0.0
    for t in (0.2, 0.7):
        kap = fm.AlgebroidForm(alg, 1, lambda gg, s: albr.kappa_value(s, gg, t),
                               scalar=False)
        dk = fm.exterior_derivative(kap, h=ctx.h)(g, secs[0], secs[1])
        fval = dk + alg.bracket(albr.kappa_value(secs[0], g, t),
                                albr.kappa_value(secs[1], g, t))
        pre = max(pre, float(np.linalg.norm(fval)),
                  float(np.linalg.norm(-kap(g, xa) + np.asarray(x))))
    iform = fm.AlgebroidForm(alg, 2, lambda gg, *ss:
                             conv.rect_sign * bt.rectangle_integral(p, fam, gg, ss, x=x, h=ctx.h))
    s = conv.lemma_orientation
    lhs3 = bt.upsilon_equivariant(p, [zero, kap1], x, g, secs, conventions=conv, h=ctx.h) \
        - bt.upsilon_equivariant(p, [zero, kap0], x, g, secs, conventions=conv, h=ctx.h)
    rhs3 = s * fm.exterior_derivative(iform, h=ctx.h)(g, *secs)
    lhs1 = bt.upsilon_equivariant(p, [zero, kap1], x, g, secs[:1], conventions=conv, h=ctx.h) \
        - bt.upsilon_equivariant(p, [zero, kap0], x, g, secs[:1], conventions=conv, h=ctx.h)
    rhs1 = s * (-iform(g, xa, secs[0]))
    worst = max(abs(lhs3 - rhs3), abs(lhs1 - rhs1))
    tol = ctx.tolerance("bott", "flat_family_transgression", 1e-3)
    return [_result(ctx, "flat_family_transgression", "bott",
                    "Upsilon_G(0,b_1) - Upsilon_G(0,b_0) = s d_G I (flat family, recorded s)",
                    worst, tol,
                    notes=f"orientation {s:g}; flatness precondition {pre:.2e}")]


@_register("varpi_p_matches_varpi", "bott",
           identity="varpi^p_G = varpi for the quadratic polynomial")
def check_varpi_p_matches(ctx):
    rng = ctx.rng("varpi_p_matches_varpi")
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    vpg = bt.varpi_p_equivariant(p, conv, h=ctx.h)
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g = alg.random_group(rng)
        xi, ze = ctx.random_sections(rng, 2)
        x = alg.random_vector(rng)
        got = vpg(x, g, [xi, ze])
        want = lf.canonical_two_form(xi, ze, g, ctx.grid, h_t=ctx.h_t)
        worst = max(worst, abs(got - want))
    tol = ctx.tolerance("bott", "varpi_p_matches_varpi", 1e-5)
    return [_result(ctx, "varpi_p_matches_varpi", "bott",
                    "varpi^p_G = varpi for the quadratic polynomial", worst, tol)]


@_register("higher_transgression_theorem", "bott", groups=("su2",),
           identity="d_G varpi^p_G(x) = a* eta^p_G(x)")
def check_higher_transgression(ctx):
    rng = ctx.rng("higher_transgression_theorem")
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    vpg = bt.varpi_p_equivariant(p, conv, h=ctx.h)
    _, etaPG = bt.eta_p_form(p, conv, h=ctx.h)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    secs = ctx.random_sections(rng, 3)
    vform = fm.AlgebroidForm(alg, 2, lambda gg, *ss: vpg(x, gg, list(ss)))
    lhs3 = fm.exterior_derivative(vform, h=ctx.h)(g, *secs)
    rhs3 = etaPG(x, g, secs)
    xa = albr.generator(alg, x)
    lhs1 = -vform(g, xa, secs[0])
    rhs1 = etaPG(x, g, [secs[0]])
    worst = max(abs(lhs3 - rhs3), abs(lhs1 - rhs1))
    tol = ctx.tolerance("bott", "higher_transgression_theorem", 1e-3)
    return [_result(ctx, "higher_transgression_theorem", "bott",
                    "d_G varpi^p_G(x) = a* eta^p_G(x)", worst, tol)]


@_register("pressley_segal", "bott", groups=("su2", "so3", "torus2"),
           identity="sigma^p restricted to loops is the Kac-Moody cocycle int xi'.zeta",
           sub_results=("pressley_segal_closed",))
def check_pressley_segal(ctx):
    rng = ctx.rng("pressley_segal")
    alg = ctx.algebra
    conv = ctx.conventions()
    p = quadratic_polynomial(alg)
    ps = bt.pressley_segal_two_form(p, conv, h=ctx.h)
    ge = alg.identity()
    worst = 0.0
    sign = None
    for _ in range(max(2, ctx.samples // 2)):
        l1 = random_loop_section(alg, rng)
        l2 = random_loop_section(alg, rng)
        km = integrate_01(lambda t: alg.pairing(l1.dprofile(ge, t), l2.profile(ge, t)),
                          ctx.grid)
        got = ps(ge, [l1, l2])
        if sign is None:
            sign = 1.0 if abs(got - km) < abs(got + km) else -1.0
        worst = max(worst, abs(got - sign * km))
    # pinned value: sin/cos pair on e1 gives pi up to the recorded sign
    e1 = np.zeros(alg.dim); e1[0] = 1.0
    two_pi = 2.0 * np.pi
    s1 = loop_section(alg, lambda t: np.sin(two_pi * t) * e1,
                      lambda t: two_pi * np.cos(two_pi * t) * e1)
    s2 = loop_section(alg, lambda t: np.cos(two_pi * t) * e1,
                      lambda t: -two_pi * np.sin(two_pi * t) * e1)
    spot = ps(ge, [s1, s2])
    worst = max(worst, abs(spot - sign * np.pi * alg.pairing(e1, e1)))
    # Chevalley-Eilenberg closedness on Fourier triples
    loops = [random_loop_section(alg, rng) for _ in range(3)]
    ce = 0.0
    for (i, j, k), sgn in (((0, 1, 2), 1.0), ((0, 2, 1), -1.0), ((1, 2, 0), 1.0)):
        br = albr.bracket(loops[i], loops[j], h=ctx.h)
        ce += sgn * ps(ge, [br, loops[k]])
    worst_ce = abs(ce)
    tol = ctx.tolerance("bott", "pressley_segal", 1e-6)
    tol_ce = ctx.tolerance("bott", "pressley_segal_closed", 1e-4)
    return [
        _result(ctx, "pressley_segal", "bott",
                "sigma^p restricted to loops is the Kac-Moody cocycle int xi'.zeta",
                worst, tol, notes=f"recorded sign {sign:g}; spot value {spot:.9f}"),
        _result(ctx, "pressley_segal_closed", "bott",
                "d_CE sigma^p = 0 on loop triples", worst_ce, tol_ce),
    ]


@_register("cubic_polynomial_suite", "bott", groups=("su2", "heisenberg3"),
           identity="cubic p: equivariant transgression and the explicit-formula degeneration")
def check_cubic_suite(ctx):
    rng = ctx.rng("cubic_polynomial_suite")
    alg = ctx.algebra
    p3 = cubic_polynomial(alg)
    name = "cubic_polynomial_suite"
    ident = "cubic p: equivariant transgression and the explicit-formula degeneration"
    if p3 is None:
        return [_result(ctx, name, "bott", ident, 0.0, 1.0,
                        notes="no invariant cubic exists for this algebra; suite skipped")]
    conv = ctx.conventions()
    vpg = bt.varpi_p_equivariant(p3, conv, h=ctx.h)
    _, etaPG = bt.eta_p_form(p3, conv, h=ctx.h)
    g = alg.random_group(rng)
    x = alg.random_vector(rng)
    secs = ctx.random_sections(rng, 3)
    vform = fm.AlgebroidForm(alg, 2, lambda gg, *ss: vpg(x, gg, list(ss)))
    lhs3 = fm.exterior_derivative(vform, h=ctx.h)(g, *secs)
    rhs3 = etaPG(x, g, secs)
    xa = albr.generator(alg, x)
    lhs1 = -vform(g, xa, secs[0])
    rhs1 = etaPG(x, g, [secs[0]])
    worst = max(abs(lhs3 - rhs3), abs(lhs1 - rhs1))
    # the explicit proportionality degenerates: invariant cubics kill brackets,
    # so both the restricted 4-form and its comparison integral must vanish
    ps3 = bt.pressley_segal_two_form(p3, conv, h=ctx.h)
    ge = alg.identity()
    loops = [random_loop_section(alg, rng) for _ in range(4)]
    kf = albr.KappaFamily(alg)

    def explicit(t):
        ks = [kf.value(t, ge, l) for l in loops]
        kd = [kf.tderiv(t, ge, l, h_t=ctx.h_t) for l in loops]
        total = 0.0
        for a in range(4):
            for b in range(4):
                if b == a:
                    continue
                i, j = [m for m in range(4) if m not in (a, b)]
                seq = [a, b, i, j]
                sgn = 1
                for mth in range(4):
                    for nth in range(mth + 1, 4):
                        if seq[mth] > seq[nth]:
                            sgn = -sgn
                total += sgn * p3(ks[a], kd[b], 2.0 * alg.bracket(ks[i], ks[j]))
        return total

    both = max(abs(ps3(ge, loops)), abs(integrate_01(explicit, ctx.coarse_grid)))
    worst = max(worst, both)
    tol = ctx.tolerance("bott", "cubic_polynomial_suite", 1e-3)
    return [_result(ctx, name, "bott", ident, worst, tol,
                    notes="explicit-formula routes both vanish (invariant cubic kills brackets)")]


# ---------------------------------------------------------------------------
# fusion suite
# ---------------------------------------------------------------------------

@_register("concat_generators", "fusion", groups=("su2", "so3", "torus2"),
           identity="generators concatenate to generators; closed-form fusion identity")
def check_concat_generators(ctx):
    rng = ctx.rng("concat_generators")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        x, y = alg.random_vector(rng), alg.random_vector(rng)

        def gen_pair(xv):
            prof = lambda a, b, t: -xv
            dprof = lambda a, b, t: np.zeros(alg.dim)
            return fu.PairSection(
                alg, prof, lambda a, b: alg.Ad(a, xv) - xv,
                prof, lambda a, b: alg.Ad(b, xv) - xv,
                dprofile2=dprof, dprofile1=dprof)

        worst = max(worst, fu.fusion_residual(gen_pair(x), gen_pair(y),
                                              g2, g1, ctx.grid))
        cat = fu.concat(gen_pair(x), g2, g1)
        gm = g2 @ g1
        worst = max(worst, float(np.linalg.norm(
            cat.v(gm) - (alg.Ad(gm, x) - x))))
        worst = max(worst, cat.compatibility_residual(gm))
    tol = ctx.tolerance("fusion", "concat_generators", 1e-10)
    return [_result(ctx, "concat_generators", "fusion",
                    "generators concatenate to generators; closed-form fusion identity",
                    worst, tol)]


@_register("concat_structure", "fusion",
           identity="a(xi2 * xi1) = Ad_{g2} v1 + v2; seam and associativity")
def check_concat_structure(ctx):
    rng = ctx.rng("concat_structure")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        pair = fu.pair_from_template(alg, rng, bump=ctx.bump)
        worst = max(worst, pair.seam_residual(g2, g1))
        cat = fu.concat(pair, g2, g1)
        gm = g2 @ g1
        worst = max(worst, float(np.linalg.norm(
            cat.v(gm) - alg.Ad(g2, pair.v1(g2, g1)) - pair.v2(g2, g1))))
        worst = max(worst, cat.compatibility_residual(gm))
    # associativity after the dyadic reparametrization, on frozen paths
    g3, g2, g1 = [alg.random_group(rng) for _ in range(3)]
    paths = []
    b = ctx.bump
    vals = [alg.random_vector(rng) for _ in range(4)]
    for i in range(3):
        a0, a1 = vals[i], vals[i + 1]
        paths.append(lambda t, a0=a0, a1=a1: a0 + b(t) * (a1 - a0))
    def left(t):
        # ((p3 * p2) * p1)
        if t <= 0.5:
            return paths[0](2 * t)
        inner = 2 * t - 1
        return paths[1](2 * inner) if inner <= 0.5 else paths[2](2 * inner - 1)
    def right(t):
        # (p3 * (p2 * p1))
        if t <= 0.5:
            outer = 2 * t
            return paths[0](2 * outer) if outer <= 0.5 else paths[1](2 * outer - 1)
        return paths[2](2 * t - 1)
    def dyadic(t):
        if t <= 0.25:
            return 2 * t
        if t <= 0.5:
            return t + 0.25
        return 0.5 * t + 0.5
    for t in np.linspace(0.0, 1.0, 33):
        worst = max(worst, float(np.linalg.norm(left(dyadic(t)) - right(t))))
    tol = ctx.tolerance("fusion", "concat_structure", 1e-8)
    return [_result(ctx, "concat_structure", "fusion",
                    "a(xi2 * xi1) = Ad_{g2} v1 + v2; seam and associativity",
                    worst, tol)]


@_register("pair_bracket_closure", "fusion",
           identity="the bracket of composable pairs is again composable")
def check_pair_bracket_closure(ctx):
    rng = ctx.rng("pair_bracket_closure")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(2):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        p = fu.pair_from_template(alg, rng, bump=ctx.bump)
        q = fu.pair_from_template(alg, rng, bump=ctx.bump)
        worst = max(worst, fu.pair_bracket(p, q, h=ctx.h).seam_residual(g2, g1))
    tol = ctx.tolerance("fusion", "pair_bracket_closure", 1e-6)
    return [_result(ctx, "pair_bracket_closure", "fusion",
                    "the bracket of composable pairs is again composable",
                    worst, tol)]


@_register("fusion_two_form", "fusion",
           identity="mult! varpi = pr1! varpi + pr2! varpi - lambda")
def check_fusion_two_form(ctx):
    rng = ctx.rng("fusion_two_form")
    alg = ctx.algebra
    worst = 0.0
    n_pairs = max(ctx.samples, 8)
    for _ in range(n_pairs):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        p = fu.pair_from_template(alg, rng, bump=ctx.bump)
        q = fu.pair_from_template(alg, rng, bump=ctx.bump)
        worst = max(worst, fu.fusion_residual(p, q, g2, g1, ctx.grid))
    tol = ctx.tolerance("fusion", "fusion_two_form", 1e-4)
    return [_result(ctx, "fusion_two_form", "fusion",
                    "mult! varpi = pr1! varpi + pr2! varpi - lambda",
                    worst, tol, params={"group": ctx.group_name, "pairs": n_pairs})]


@_register("lambda_cartan_form", "fusion",
           identity="mult* eta = pr1* eta + pr2* eta - d lambda")
def check_lambda_cartan(ctx):
    rng = ctx.rng("lambda_cartan_form")
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    worst = 0.0
    for _ in range(max(2, ctx.samples // 2)):
        g2, g1 = alg.random_group(rng), alg.random_group(rng)
        triples = [(alg.random_vector(rng), alg.random_vector(rng)) for _ in range(3)]
        worst = max(worst, fu.mult_eta_residual(alg, eta, g2, g1, triples, h=ctx.h))
    tol = ctx.tolerance("fusion", "lambda_cartan_form", 1e-4)
    return [_result(ctx, "lambda_cartan_form", "fusion",
                    "mult* eta = pr1* eta + pr2* eta - d lambda", worst, tol)]


# ---------------------------------------------------------------------------
# courant suite
# ---------------------------------------------------------------------------

@_register("isotropy", "courant",
           identity="<f(xi), f(xi)> = 0 for f(xi) = (xi, i_xi varpi)")
def check_isotropy(ctx):
    rng = ctx.rng("isotropy")
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.grid, h_t=ctx.h_t)
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng, scale=0.5)
        z = random_twisted_loop(alg, rng, bump=ctx.bump)
        el = fu.CourantElement(z, fm.contract(vform, z))
        worst = max(worst, abs(fu.courant_pairing(el, el, g)))
    tol = ctx.tolerance("courant", "isotropy", 1e-10)
    return [_result(ctx, "isotropy", "courant",
                    "<f(xi), f(xi)> = 0 for f(xi) = (xi, i_xi varpi)", worst, tol)]


@_register("loop_action_brackets", "courant",
           identity="[[f(x1), f(x2)]] = f([x1, x2]) for loop sections")
def check_loop_action(ctx):
    rng = ctx.rng("loop_action_brackets")
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.coarse_grid, h_t=ctx.h_t)
    worst = 0.0
    for _ in range(2):
        g = alg.random_group(rng, scale=0.5)
        z1 = random_twisted_loop(alg, rng, bump=ctx.bump)
        z2 = random_twisted_loop(alg, rng, bump=ctx.bump)
        chi = random_section(alg, rng, bump=ctx.bump)
        f1 = fu.CourantElement(z1, fm.contract(vform, z1))
        f2 = fu.CourantElement(z2, fm.contract(vform, z2))
        cb = fu.courant_bracket(f1, f2, h=ctx.h)
        br = albr.bracket(z1, z2, h=ctx.h)
        worst = max(worst, abs(cb.coform(g, chi) - vform(g, br, chi)))
        t0 = rng.uniform(0.2, 0.8)
        worst = max(worst, float(np.linalg.norm(
            cb.section.profile(g, t0) - br.profile(g, t0))))
    tol = ctx.tolerance("courant", "loop_action_brackets", 1e-4)
    return [_result(ctx, "loop_action_brackets", "courant",
                    "[[f(x1), f(x2)]] = f([x1, x2]) for loop sections", worst, tol)]


@_register("reduced_twist", "courant",
           identity="[[f(v1)+a1, f(v2)+a2]] = f([v1,v2]) + i_{v2} i_{v1} a* eta + L_{v1} a2 - i_{v2} d a1")
def check_reduced_twist(ctx):
    rng = ctx.rng("reduced_twist")
    alg = ctx.algebra
    vform = lf.varpi_form(alg, ctx.coarse_grid, h_t=ctx.h_t)
    eta = fm.cartan_three_form(alg)
    worst = 0.0
    for _ in range(2):
        g = alg.random_group(rng)
        v1, v2, chi = ctx.random_sections(rng, 3)
        c1, c2 = alg.random_vector(rng), alg.random_vector(rng)
        a1 = fm.AlgebroidForm(alg, 1,
                              lambda gg, s: alg.pairing(c1 + alg.Ad(gg, c2), s.v(gg)))
        a2 = fm.AlgebroidForm(alg, 1,
                              lambda gg, s: alg.pairing(c2, s.v(gg))
                              * float(np.sin(alg.pairing(c1, alg.Ad(gg, c1)))))
        worst = max(worst, fu.reduced_bracket_residual(
            vform, eta, v1, v2, a1, a2, chi, g, h=ctx.h))
    tol = ctx.tolerance("courant", "reduced_twist", 1e-4)
    return [_result(ctx, "reduced_twist", "courant",
                    "[[f(v1)+a1, f(v2)+a2]] = f([v1,v2]) + i_{v2} i_{v1} a* eta + L_{v1} a2 - i_{v2} d a1",
                    worst, tol)]


# ---------------------------------------------------------------------------
# qham suite
# ---------------------------------------------------------------------------

def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


@_register("class_equivariance", "qham", groups=("su2",),
           identity="Phi(k.m) = k Phi(m) k^{-1} on the conjugacy class")
def check_class_equivariance(ctx):
    rng = ctx.rng("class_equivariance")
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    worst = 0.0
    for _ in range(ctx.samples):
        worst = max(worst, klass.equivariance_residual(
            alg.random_group(rng), _unit(rng)))
    tol = ctx.tolerance("qham", "class_equivariance", 1e-10)
    return [_result(ctx, "class_equivariance", "qham",
                    "Phi(k.m) = k Phi(m) k^{-1} on the conjugacy class", worst, tol)]


@_register("moment_sign_oracle", "qham", groups=("su2",),
           identity="omega(x_M, .) = -(1/2) Phi*((theta^L + theta^R).x) fixes the sign of omega")
def check_moment_oracle(ctx):
    rng = ctx.rng("moment_sign_oracle")
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    sign, residuals = qh.calibrate_ghjw(klass, rng,
                                        tol=ctx.tolerance("qham", "moment_sign_oracle", 1e-4))
    omega = qh.ghjw_omega(klass, sign)
    worst = residuals[sign]
    # pinned magnitude at the quarter-turn example
    n0 = np.array([0.0, 0.0, 1.0])
    t1 = klass.generator_field(np.array([1.0, 0.0, 0.0]), n0)
    t2 = klass.generator_field(np.array([0.0, 1.0, 0.0]), n0)
    mag = abs(omega(n0, t1, t2))
    worst = max(worst, abs(mag - 1.0))
    tol = ctx.tolerance("qham", "moment_sign_oracle", 1e-4)
    return [_result(ctx, "moment_sign_oracle", "qham",
                    "omega(x_M, .) = -(1/2) Phi*((theta^L + theta^R).x) fixes the sign of omega",
                    worst, tol, notes=f"sign {sign:g}; |omega| = {mag:.6f} at the example")]


@_register("pullback_bracket_laws", "qham", groups=("su2",),
           identity="[(X,xi),(Y,zeta)] = ([X,Y], -[xi,zeta] + X zeta - Y xi): seam and Jacobi")
def check_pullback_bracket(ctx):
    rng = ctx.rng("pullback_bracket_laws")
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    n = _unit(rng)

    def mk():
        a0 = alg.random_vector(rng, 0.5)
        a1v = alg.random_vector(rng, 0.5)
        u0, u1 = rng.standard_normal(3), rng.standard_normal(3)
        af = lambda m: a0 + (m @ u0) * a1v
        xf = lambda m: (np.eye(3) - np.outer(m, m)) @ (u1 + np.cross(m, u0))
        return qh.pullback_template(klass, af, xf, ctx.bump)

    p1, p2, p3 = mk(), mk(), mk()
    worst = p1.seam_residual(n)
    b12 = qh.pullback_bracket(p1, p2)
    worst = max(worst, b12.seam_residual(n))
    t0 = 0.4
    jac = qh.pullback_bracket(b12, p3).profile(n, t0) \
        + qh.pullback_bracket(qh.pullback_bracket(p2, p3), p1).profile(n, t0) \
        + qh.pullback_bracket(qh.pullback_bracket(p3, p1), p2).profile(n, t0)
    worst = max(worst, float(np.linalg.norm(jac)))
    # generators pulled back bracket as in the algebra
    x, y = alg.random_vector(rng), alg.random_vector(rng)
    gb = qh.pullback_bracket(qh.pullback_generator(klass, x),
                             qh.pullback_generator(klass, y))
    want = -alg.bracket(x, y)  # constant profile of the bracket generator
    worst = max(worst, float(np.linalg.norm(gb.profile(n, 0.3) - want)))
    tol = ctx.tolerance("qham", "pullback_bracket_laws", 1e-4)
    return [_result(ctx, "pullback_bracket_laws", "qham",
                    "[(X,xi),(Y,zeta)] = ([X,Y], -[xi,zeta] + X zeta - Y xi): seam and Jacobi",
                    worst, tol)]


@_register("kernel_theorem", "qham", groups=("su2",),
           identity="ker(a* omega + varpi_M) = g + (ker omega ∩ ker dPhi), probed on a truncated basis",
           sub_results=("kernel_generator_rows", "kernel_loop_velocity", "kernel_basis_seams"))
def check_kernel_theorem(ctx):
    rng = ctx.rng("kernel_theorem")
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    sign, _ = qh.calibrate_ghjw(klass, rng)
    omega = qh.ghjw_omega(klass, sign)
    n = _unit(rng)
    dims = []
    seam_worst = 0.0
    gen_worst = 0.0
    loop_worst = 0.0
    dropped = []
    for n_max in (4, 6, 8):
        basis = qh.TruncatedBasis(klass, n, n_max, ctx.grid)
        seam_worst = max(seam_worst, float(basis.seam_residuals().max()))
        for thr in (1e-7, 1e-8, 1e-9):
            dim, null, s, ndrop = qh.gram_kernel(basis, omega, threshold=thr)
            dims.append(dim)
            dropped.append(ndrop)
            if thr == 1e-8:
                gen_worst = max(gen_worst, float(np.abs(s[:3, :]).max()))
                for j in range(null.shape[1]):
                    dpath = np.einsum("a,atd->td", null[:, j], basis.derivs)
                    loop_worst = max(loop_worst, float(np.abs(dpath).max()))
    dim_resid = float(max(abs(d - 3) for d in dims))
    results = [
        _result(ctx, "kernel_theorem", "qham",
                "ker(a* omega + varpi_M) = g + (ker omega ∩ ker dPhi), probed on a truncated basis",
                dim_resid, ctx.tolerance("qham", "kernel_theorem", 0.0),
                params={"group": ctx.group_name, "n_max": [4, 6, 8],
                        "thresholds": [1e-7, 1e-8, 1e-9]},
                notes=f"dimension 3 across sweeps; dependencies dropped {sorted(set(dropped))}"),
        _result(ctx, "kernel_generator_rows", "qham",
                "generator elements pair to zero against the whole probe basis",
                gen_worst, ctx.tolerance("qham", "kernel_generator_rows", 1e-5)),
        _result(ctx, "kernel_loop_velocity", "qham",
                "kernel vectors have stationary loop parts (xi' = 0)",
                loop_worst, ctx.tolerance("qham", "kernel_loop_velocity", 1e-4)),
        _result(ctx, "kernel_basis_seams", "qham",
                "every probe element satisfies its seam",
                seam_worst, ctx.tolerance("qham", "kernel_basis_seams", 1e-8)),
    ]
    return results


@_register("abelian_kernel", "qham", groups=("torus2",),
           identity="abelian degeneration: kernel = constants + ker dPhi")
def check_abelian_kernel(ctx):
    rng = ctx.rng("abelian_kernel")
    alg = ctx.algebra
    klass = qh.TrivialClass(alg)
    n = _unit(rng)
    basis = qh.TruncatedBasis(klass, n, 4, ctx.grid)
    dim, null, s, ndrop = qh.gram_kernel(basis, None)
    expected = alg.dim + 2
    tol = ctx.tolerance("qham", "abelian_kernel", 0.0)
    return [_result(ctx, "abelian_kernel", "qham",
                    "abelian degeneration: kernel = constants + ker dPhi",
                    float(abs(dim - expected)), tol,
                    notes=f"dimension {dim}, expected {expected}")]


@_register("pullback_three_form", "qham", groups=("su2",),
           identity="d_G varpi_M(x) = a_M* Phi* eta_G(x) on the class")
def check_pullback_three_form(ctx):
    rng = ctx.rng("pullback_three_form")
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    n = _unit(rng)

    def mk():
        a0 = alg.random_vector(rng, 0.5)
        u0, u1 = rng.standard_normal(3), rng.standard_normal(3)
        af = lambda m: a0 + (m @ u0) * a0
        xf = lambda m: (np.eye(3) - np.outer(m, m)) @ (u1 + np.cross(m, u0))
        return qh.pullback_template(klass, af, xf, ctx.bump)

    secs = [mk() for _ in range(3)]
    # degree-3 Koszul differential of the pulled-back 2-form on the sphere
    def vform(m, p, q):
        return qh.varpi_pullback(klass, p, q, m, ctx.coarse_grid, h_t=ctx.h_t)

    total = 0.0
    for i in range(3):
        rest = [secs[m] for m in range(3) if m != i]
        dval = klass.directional(
            lambda m: np.array(vform(m, rest[0], rest[1])), n, secs[i].xfield(n))
        total += ((-1) ** i) * float(dval)
    for i in range(3):
        for j in range(i + 1, 3):
            (k,) = [m for m in range(3) if m != i and m != j]
            br = qh.pullback_bracket(secs[i], secs[j])
            total += ((-1) ** (i + j)) * vform(n, br, secs[k])
    # the right side vanishes: 3-forms on a surface pull back to zero
    worst = abs(total)
    # degree-1 equivariant component
    x = alg.random_vector(rng)
    xg = qh.pullback_generator(klass, x)
    lhs1 = -vform(n, xg, secs[0])
    g = klass.point(n)
    w = klass.push_tangent(n, secs[0].xfield(n))
    rhs1 = -0.5 * alg.pairing(alg.Ad(alg.inv(g), w) + w, x)
    worst = max(worst, abs(lhs1 - rhs1))
    tol = ctx.tolerance("qham", "pullback_three_form", 1e-4)
    return [_result(ctx, "pullback_three_form", "qham",
                    "d_G varpi_M(x) = a_M* Phi* eta_G(x) on the class", worst, tol)]


@_register("pullback_cochain", "qham", groups=("su2",),
           identity="d(Phi* omega) = Phi*(d omega) for de Rham forms on the class")
def check_pullback_cochain(ctx):
    rng = ctx.rng("pullback_cochain")
    alg = ctx.algebra
    klass = qh.ConjugacyClass(alg)
    n = _unit(rng)
    c1, c2 = alg.random_vector(rng), alg.random_vector(rng)
    om = fm.DeRhamForm(alg, 1, lambda g, v: alg.pairing(c1 + alg.Ad(g, c2), v))
    dom = fm.de_rham_differential(om, h=ctx.h)

    def pull(form, deg):
        def ev(m, *tangents):
            g = klass.point(m)
            vs = [klass.push_tangent(m, t) for t in tangents]
            return form(g, *vs)
        return ev

    pom = pull(om, 1)
    pdom = pull(dom, 2)
    t1, t2 = klass.tangent_basis(n)

    def field(tv):
        return lambda m: (np.eye(3) - np.outer(m, m)) @ tv

    f1, f2 = field(t1), field(t2)
    # d on the sphere of the pulled 1-form
    d1 = klass.directional(lambda m: np.array(pom(m, f2(m))), n, f1(n))
    d2 = klass.directional(lambda m: np.array(pom(m, f1(m))), n, f2(n))
    br = klass.field_bracket(f1, f2, n)
    lhs = float(d1) - float(d2) - pom(n, br)
    rhs = pdom(n, f1(n), f2(n))
    worst = abs(lhs - rhs)
    tol = ctx.tolerance("qham", "pullback_cochain", 1e-4)
    return [_result(ctx, "pullback_cochain", "qham",
                    "d(Phi* omega) = Phi*(d omega) for de Rham forms on the class",
                    worst, tol)]


@_register("based_projection", "qham",
           identity="q(xi) = xi - xi(0) vanishes at 0 with a(q xi) = a(xi) + xi(0)_G")
def check_based_projection(ctx):
    rng = ctx.rng("based_projection")
    alg = ctx.algebra
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        xi = random_section(alg, rng, bump=ctx.bump)
        at0, shift = qh.project_based_residuals(xi, g)
        worst = max(worst, at0, shift)
        q = qh.project_based(xi)
        worst = max(worst, q.compatibility_residual(g))
    tol = ctx.tolerance("qham", "based_projection", 1e-10)
    return [_result(ctx, "based_projection", "qham",
                    "q(xi) = xi - xi(0) vanishes at 0 with a(q xi) = a(xi) + xi(0)_G",
                    worst, tol)]


@_register("subalgebroid_projection", "qham", groups=("heisenberg3",),
           identity="q(E) of an invariant subalgebroid transverse to the generators is bracket-closed")
def check_subalgebroid(ctx):
    rng = ctx.rng("subalgebroid_projection")
    alg = ctx.algebra
    g = alg.random_group(rng)
    z = np.array([0.0, 0.0, 1.0])
    y = np.array([0.0, 1.0, 0.0])
    two_pi = 2.0 * np.pi
    s1 = AlgebroidSection(
        alg, lambda gg, t: np.cos(two_pi * t) * z,
        lambda gg: np.zeros(3),
        dprofile=lambda gg, t: -two_pi * np.sin(two_pi * t) * z, name="s1")
    s2 = AlgebroidSection(
        alg, lambda gg, t: np.cos(two_pi * t) * y + gg[0, 1] * t * np.cos(two_pi * t) * z,
        lambda gg: np.zeros(3),
        dprofile=lambda gg, t: -two_pi * np.sin(two_pi * t) * y
        + gg[0, 1] * (np.cos(two_pi * t) - two_pi * t * np.sin(two_pi * t)) * z,
        name="s2")
    worst = max(s1.compatibility_residual(g), s2.compatibility_residual(g))
    # hypotheses: E is closed under the bracket and invariant mod E
    br = albr.bracket(s1, s2, h=ctx.h)
    worst = max(worst, float(np.linalg.norm(br.profile(g, 0.3))),
                float(np.linalg.norm(br.v(g))))
    x = alg.random_vector(rng)
    act = albr.bracket(albr.generator(alg, x), s2, h=ctx.h)
    t0 = 0.3
    worst = max(worst, float(np.linalg.norm(
        act.profile(g, t0) - x[0] * s1.profile(g, t0))))
    # conclusion: brackets of function multiples of q(E)-sections stay in the span
    q1, q2 = qh.project_based(s1), qh.project_based(s2)
    c0 = alg.random_vector(rng)

    def hfun(gg):
        return float(np.sin(gg[0, 1] + alg.pairing(c0, c0)))

    fq2 = AlgebroidSection(alg, lambda gg, t: hfun(gg) * q2.profile(gg, t),
                           lambda gg: hfun(gg) * q2.v(gg))
    qbr = albr.bracket(q1, fq2, h=ctx.h)
    ts = np.linspace(0.07, 0.93, 9)
    target = np.array([qbr.profile(g, t) for t in ts]).ravel()
    a_mat = np.stack([np.array([q1.profile(g, t) for t in ts]).ravel(),
                      np.array([q2.profile(g, t) for t in ts]).ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, target, rcond=None)
    worst = max(worst, float(np.linalg.norm(target - a_mat @ coef)))
    tol = ctx.tolerance("qham", "subalgebroid_projection", 1e-6)
    return [_result(ctx, "subalgebroid_projection", "qham",
                    "q(E) of an invariant subalgebroid transverse to the generators is bracket-closed",
                    worst, tol)]


@_register("abelian_collapse", "qham", groups=("torus2",),
           identity="abelian degeneration: curvature, eta and twist quantities vanish identically")
def check_abelian_collapse(ctx):
    rng = ctx.rng("abelian_collapse")
    alg = ctx.algebra
    eta = fm.cartan_three_form(alg)
    alpha = _invariant_family(ctx, rng)
    etad = lf.eta_from_data(albr.build_alpha(alg, bump=ctx.bump), ctx.coarse_grid, h=ctx.h)
    worst = 0.0
    for _ in range(ctx.samples):
        g = alg.random_group(rng)
        v, w, u = [alg.random_vector(rng) for _ in range(3)]
        worst = max(worst, float(np.linalg.norm(
            albr.curvature(alpha, g, 0.37, v, w, h=ctx.h))))
        worst = max(worst, abs(eta(g, v, w, u)))
        worst = max(worst, abs(etad(g, v, w, u)))
    # twist term of the reduced Courant bracket and the lifted Jacobiator
    g = alg.random_group(rng)
    vs = [alg.random_vector(rng) for _ in range(3)]
    fields = [lambda gg, vv=v: vv for v in vs]
    jac = lf.lifted_jacobiator_scalar(None, albr.build_alpha(alg, bump=ctx.bump),
                                      fields, g, ctx.coarse_grid, h=ctx.h, h_t=ctx.h_t)
    worst = max(worst, abs(jac))
    tol = ctx.tolerance("qham", "abelian_collapse", 1e-10)
    return [_result(ctx, "abelian_collapse", "qham",
                    "abelian degeneration: curvature, eta and twist quantities vanish identically",
                    worst, tol)]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def list_checks(group=None, suites=None):
    out = []
    for spec in REGISTRY:
        if suites and spec.suite not in suites:
            continue
        if group and not spec.applicable(group):
            continue
        out.append(spec)
    return out


def result_keys():
    """Every `suite.check` a verify run can report: the valid tolerance keys."""
    return {f"{spec.suite}.{name}" for spec in REGISTRY
            for name in (spec.name, *spec.sub_results)}


def run_checks(group, config, suites=None, progress=None):
    """Execute the applicable checks for a group; returns CheckResult list.

    Each result carries the measured wall time of the check that produced it.
    """
    ctx = CheckContext(group, config)
    results = []
    for spec in REGISTRY:
        if suites and spec.suite not in suites:
            continue
        if not spec.applicable(group):
            continue
        start = time.perf_counter()
        out = spec.fn(ctx)
        elapsed = (time.perf_counter() - start) * 1000.0
        for res in out:
            res.runtime_ms = elapsed
            results.append(res)
        if progress is not None:
            progress(spec, out)
    return results
